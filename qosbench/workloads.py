"""Seeded benchmark inputs with planted answers.

Every request's feasibility is fixed by how its budget is built, never by
running a selector:

* loose      -- the budget admits every candidate combination;
* basic      -- the budget is the aggregate of the all-cheapest pick plus slack;
* tight      -- the budget is the aggregate of the planted all-fast pick plus a
                slack no other pick can use, because every other candidate is
                slower than the time bound;
* infeasible -- the time bound lies below the fastest candidate of one slot.

`self_check` then confirms each planted answer by plain enumeration of the
candidate combinations.  Inputs are written as JSONL in the frozen artifact
formats (docs/FORMATS.md) without importing the program, so the program
receives only the generated files.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "qosorch" / "fixtures"

# Fast candidates respond within FAST_MAX_MS; every other candidate takes at
# least SLOW_MIN_MS, so a time bound below SLOW_MIN_MS admits only fast picks.
FAST_MIN_MS, FAST_MAX_MS = 10, 40
SLOW_MIN_MS, SLOW_MAX_MS = 60, 200

# Selection shapes timed on their own (activities x candidates per activity).
SWEEP_SHAPES = ((2, 6), (3, 7), (4, 7), (6, 4), (7, 4), (20, 50))

# Enumeration self-checks run only up to this many combinations; larger
# shapes (the 20x50 sweep) rest on their construction alone.
ENUMERATION_CAP = 1 << 16

# `qosorch run --seed` for every benchmark seed.  With the class order also
# fixed, every seed gives the same interleaving and the same amount of work,
# so the spread between seeds measures the machine, not the schedule.
SCHEDULER_SEED = 0


@dataclass(frozen=True)
class Candidate:
    candidate_id: str
    ontology: str
    response_time_ms: int
    cost_cents: int


@dataclass(frozen=True)
class Request:
    client_id: str
    response_time_ms: int
    cost_cents: int
    budget_class: str
    feasible: bool


@dataclass(frozen=True)
class Orchestration:
    """One workflow, its registry and its batch of requests."""

    ontology: str
    activities: tuple[tuple[str, str], ...]
    candidates: tuple[Candidate, ...]
    requests: tuple[Request, ...]

    def slots(self) -> list[list[Candidate]]:
        by_ontology: dict[str, list[Candidate]] = {}
        for candidate in self.candidates:
            by_ontology.setdefault(candidate.ontology, []).append(candidate)
        return [by_ontology[ontology] for _, ontology in self.activities]

    def combinations(self) -> int:
        total = 1
        for slot in self.slots():
            total *= len(slot)
        return total


# ---------------------------------------------------------------------------
# Registries and budgets


def make_orchestration_shape(
    rng: random.Random, name: str, n_activities: int, n_candidates: int
) -> tuple[tuple[tuple[str, str], ...], tuple[Candidate, ...], list[Candidate]]:
    """A workflow of n_activities, each backed by an ontology with one fast,
    expensive candidate and n_candidates - 1 slower, cheaper ones.  Returns
    the activities, all candidates, and the planted fast pick per slot."""
    activities = tuple((f"{name} step {k}", f"{name}Op{k}") for k in range(n_activities))
    candidates: list[Candidate] = []
    fast_pick: list[Candidate] = []
    for _, ontology in activities:
        # The fast candidate always sorts last, so enumerating combinations in
        # id order reaches the all-fast pick last on every seed.
        labels = [n_candidates - 1] + rng.sample(range(n_candidates - 1), n_candidates - 1)
        fast = Candidate(
            f"{ontology.lower()}-{labels[0]:02d}",
            ontology,
            rng.randint(FAST_MIN_MS, FAST_MAX_MS),
            rng.randint(8, 15),
        )
        fast_pick.append(fast)
        candidates.append(fast)
        for label in labels[1:]:
            candidates.append(
                Candidate(
                    f"{ontology.lower()}-{label:02d}",
                    ontology,
                    rng.randint(SLOW_MIN_MS, SLOW_MAX_MS),
                    rng.randint(1, 7),
                )
            )
    return activities, tuple(candidates), fast_pick


def _aggregate(pick) -> tuple[int, int]:
    return max(c.response_time_ms for c in pick), sum(c.cost_cents for c in pick)


def make_budget(
    rng: random.Random,
    budget_class: str,
    candidates: tuple[Candidate, ...],
    slots: list[list[Candidate]],
    fast_pick: list[Candidate],
) -> tuple[int, int, bool]:
    """(response time bound, cost budget, planted feasibility) of one class."""
    if budget_class == "loose":
        worst = max(c.response_time_ms for c in candidates)
        total = sum(max(c.cost_cents for c in slot) for slot in slots)
        return worst + rng.randint(0, 50), total + rng.randint(0, 20), True
    if budget_class == "basic":
        cheapest = [min(slot, key=lambda c: c.cost_cents) for slot in slots]
        worst, total = _aggregate(cheapest)
        return worst + rng.randint(0, 20), total + rng.randint(0, 3), True
    if budget_class == "tight":
        worst, total = _aggregate(fast_pick)
        return worst + rng.randint(0, SLOW_MIN_MS - FAST_MAX_MS - 1), total + rng.randint(0, 3), True
    if budget_class == "infeasible":
        blocked = rng.choice(fast_pick)
        _, loose_cost = _aggregate([max(slot, key=lambda c: c.cost_cents) for slot in slots])
        return blocked.response_time_ms - rng.randint(1, 5), loose_cost + rng.randint(0, 20), False
    raise ValueError(f"unknown budget class {budget_class!r}")


def class_order(class_counts: dict[str, int]) -> list[str]:
    """Budget classes spread round-robin over the batch, the same on every seed."""
    remaining = dict(class_counts)
    order = []
    while any(remaining.values()):
        for budget_class, left in remaining.items():
            if left:
                order.append(budget_class)
                remaining[budget_class] = left - 1
    return order


def make_orchestration(
    rng: random.Random,
    name: str,
    n_activities: int,
    n_candidates: int,
    class_counts: dict[str, int],
    *,
    shared_budgets: bool,
) -> Orchestration:
    """A batch whose budget classes have exactly the given counts.

    With shared_budgets every request of a class carries the same budget
    (repeated budgets); otherwise each request draws its own.
    """
    activities, candidates, fast_pick = make_orchestration_shape(
        rng, name, n_activities, n_candidates
    )
    shape = Orchestration(name, activities, candidates, ())
    slots = shape.slots()
    classes = class_order(class_counts)
    fixed = {
        cls: make_budget(rng, cls, candidates, slots, fast_pick) for cls in class_counts
    }
    requests = []
    for index, budget_class in enumerate(classes):
        if shared_budgets:
            rt, cost, feasible = fixed[budget_class]
        else:
            rt, cost, feasible = make_budget(rng, budget_class, candidates, slots, fast_pick)
        requests.append(Request(f"c{index:03d}", rt, cost, budget_class, feasible))
    return Orchestration(name, activities, candidates, tuple(requests))


# ---------------------------------------------------------------------------
# Workloads

RUN_WORKLOADS = {
    # Bookstore shape: the pool grows with N while selection stays trivial.
    "fanout": (
        ("Fanout", 6, 2, {"loose": 12, "basic": 10, "tight": 10, "infeasible": 8}, True),
    ),
    # Wide shapes: 4,096 combinations (largest exact case) and 16,384
    # (greedy path); most requests end at the decision.
    "admission": (
        ("AdmitSix", 6, 4, {"loose": 7, "tight": 14, "infeasible": 14}, False),
        ("AdmitSeven", 7, 4, {"loose": 7, "tight": 14, "infeasible": 14}, False),
    ),
}
EXPLORE_WORKLOADS = {"explore-pair": "pair"}
WORKLOAD_NAMES = tuple(RUN_WORKLOADS) + tuple(EXPLORE_WORKLOADS)


def generate(workload: str, seed: int) -> list[Orchestration]:
    """The orchestrations of a run workload, fixed by (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    return [
        make_orchestration(rng, name, k, c, counts, shared_budgets=shared)
        for name, k, c, counts, shared in RUN_WORKLOADS[workload]
    ]


def sweep_orchestrations(seed: int) -> list[Orchestration]:
    """One feasible (loose) and one infeasible request per sweep shape."""
    rng = random.Random(f"sweep:{seed}")
    return [
        make_orchestration(
            rng, f"Sweep{k}x{c}", k, c, {"loose": 1, "infeasible": 1}, shared_budgets=False
        )
        for k, c in SWEEP_SHAPES
    ]


# ---------------------------------------------------------------------------
# Files


def _dump(path: Path, records) -> None:
    path.write_text(
        "".join(json.dumps(record, sort_keys=True) + "\n" for record in records),
        encoding="utf-8",
    )


def write_orchestration(orch: Orchestration, directory: Path) -> dict:
    """Write workflow, registry and requests files; return their paths."""
    stem = orch.ontology.lower()
    files = {
        "workflow": str(directory / f"{stem}_workflow.jsonl"),
        "registry": str(directory / f"{stem}_registry.jsonl"),
        "requests": str(directory / f"{stem}_requests.jsonl"),
        "trace": str(directory / f"{stem}_trace.jsonl"),
    }
    _dump(
        Path(files["workflow"]),
        [
            {
                "record": "workflow",
                "ontology": orch.ontology,
                "activities": [{"name": n, "ontology": o} for n, o in orch.activities],
            }
        ],
    )
    _dump(
        Path(files["registry"]),
        [
            {
                "record": "candidate",
                "candidate_id": c.candidate_id,
                "ontology": c.ontology,
                "response_time_ms": c.response_time_ms,
                "cost_cents": c.cost_cents,
            }
            for c in orch.candidates
        ],
    )
    _dump(
        Path(files["requests"]),
        [
            {
                "record": "request",
                "client_id": r.client_id,
                "ontology": orch.ontology,
                "input_parameters": {"order": f"order-{r.client_id}"},
                "qos": {"response_time_ms": r.response_time_ms, "cost_cents": r.cost_cents},
            }
            for r in orch.requests
        ],
    )
    return files


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def load_fixture(name: str, requests_file: str) -> Orchestration:
    """A shipped fixture as an Orchestration; every request is planted
    feasible, and self_check confirms that by enumeration."""
    (workflow,) = _read_jsonl(FIXTURES / f"{name}_workflow.jsonl")
    candidates = tuple(
        Candidate(r["candidate_id"], r["ontology"], r["response_time_ms"], r["cost_cents"])
        for r in _read_jsonl(FIXTURES / f"{name}_registry.jsonl")
    )
    requests = tuple(
        Request(r["client_id"], r["qos"]["response_time_ms"], r["qos"]["cost_cents"], "fixture", True)
        for r in _read_jsonl(FIXTURES / requests_file)
    )
    activities = tuple((a["name"], a["ontology"]) for a in workflow["activities"])
    return Orchestration(workflow["ontology"], activities, candidates, requests)


def copy_fixture(name: str, requests_file: str, directory: Path) -> dict:
    files = {
        "workflow": directory / f"{name}_workflow.jsonl",
        "registry": directory / f"{name}_registry.jsonl",
        "requests": directory / requests_file,
    }
    for key, target in files.items():
        source = FIXTURES / (requests_file if key == "requests" else target.name)
        shutil.copyfile(source, target)
    return {key: str(path) for key, path in files.items()}


# ---------------------------------------------------------------------------
# Self-check


def self_check(orchestrations: list[Orchestration]) -> list[str]:
    """Confirm every planted answer by enumerating candidate combinations.

    Returns one message per disagreement; shapes above ENUMERATION_CAP are
    skipped and rest on their construction.
    """
    problems: list[str] = []
    for orch in orchestrations:
        if orch.combinations() > ENUMERATION_CAP:
            continue
        aggregates = {_aggregate(combo) for combo in itertools.product(*orch.slots())}
        for request in orch.requests:
            feasible = any(
                worst <= request.response_time_ms and total <= request.cost_cents
                for worst, total in aggregates
            )
            if feasible != request.feasible:
                problems.append(
                    f"{orch.ontology}/{request.client_id} ({request.budget_class}): planted "
                    f"{'feasible' if request.feasible else 'infeasible'}, "
                    f"enumeration says {'feasible' if feasible else 'infeasible'}"
                )
    return problems
