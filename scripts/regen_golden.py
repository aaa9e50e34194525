"""Regenerate the frozen golden traces of the six-activity bookshop fixture.

Each golden file pins the byte-exact output of a seed-0 run: one of the
feasible requests, which the selector grants, and one of the infeasible
requests, which it denies.  The acceptance suite re-runs each fixture and
compares bytes.  Regenerate only after a deliberate format or rule change,
and re-review the diff.
"""

from __future__ import annotations

from pathlib import Path

import qosorch
from qosorch import engine, formats
from qosorch.registry import load_registry

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(qosorch.__file__).parent / "fixtures"
GOLDEN = ROOT / "tests" / "golden"

# golden file -> requests fixture it pins
RUNS = {
    "bookstore_seed0.jsonl": "bookstore_requests_feasible.jsonl",
    "bookstore_infeasible_seed0.jsonl": "bookstore_requests_infeasible.jsonl",
}


def main() -> None:
    workflow = formats.load_workflow(FIXTURES / "bookstore_workflow.jsonl")
    registry = load_registry(FIXTURES / "bookstore_registry.jsonl")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for golden, requests_file in RUNS.items():
        requests = formats.load_requests(FIXTURES / requests_file)
        trace = engine.run(workflow, registry, requests, seed=0)
        formats.write_traces([trace], GOLDEN / golden)
        print(f"golden trace written to {GOLDEN / golden} ({len(trace)} transitions)")


if __name__ == "__main__":
    main()
