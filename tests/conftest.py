import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import qosorch
from qosorch import engine, formats
from qosorch.model import WorkflowDef, WsoRequest
from qosorch.registry import Registry, load_registry

FIXTURES = Path(qosorch.__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


@dataclass(frozen=True)
class FixtureSet:
    workflow: WorkflowDef
    registry: Registry
    requests: tuple[WsoRequest, ...]


def load_fixture_set(name: str, requests_file: str) -> FixtureSet:
    return FixtureSet(
        workflow=formats.load_workflow(FIXTURES / f"{name}_workflow.jsonl"),
        registry=load_registry(FIXTURES / f"{name}_registry.jsonl"),
        requests=tuple(formats.load_requests(FIXTURES / requests_file)),
    )


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN


@pytest.fixture(scope="session")
def minimal_one() -> FixtureSet:
    return load_fixture_set("minimal", "minimal_requests_one.jsonl")


@pytest.fixture(scope="session")
def minimal_two() -> FixtureSet:
    return load_fixture_set("minimal", "minimal_requests_two.jsonl")


@pytest.fixture(scope="session")
def pair_one() -> FixtureSet:
    return load_fixture_set("pair", "pair_requests_one.jsonl")


@pytest.fixture(scope="session")
def pair_two_denied() -> FixtureSet:
    return load_fixture_set("pair", "pair_requests_two_denied.jsonl")


@pytest.fixture(scope="session")
def pair_mixed() -> FixtureSet:
    return load_fixture_set("pair", "pair_requests_mixed.jsonl")


@pytest.fixture(scope="session")
def bookstore_feasible() -> FixtureSet:
    return load_fixture_set("bookstore", "bookstore_requests_feasible.jsonl")


@pytest.fixture(scope="session")
def bookstore_infeasible() -> FixtureSet:
    return load_fixture_set("bookstore", "bookstore_requests_infeasible.jsonl")


@dataclass(frozen=True)
class Corpora:
    """Exhaustively explored trace sets keyed by corpus name."""

    sets: dict
    build_seconds: float


@pytest.fixture(scope="session")
def explored_corpora(minimal_one, minimal_two, pair_one, pair_two_denied) -> Corpora:
    started = time.perf_counter()
    sets = {}
    for key, fixture_set in (
        ("minimal-1req", minimal_one),
        ("minimal-2req", minimal_two),
        ("pair-1req", pair_one),
        ("pair-2req-denied", pair_two_denied),
    ):
        sets[key] = engine.explore(
            fixture_set.workflow,
            fixture_set.registry,
            fixture_set.requests,
            max_transitions=200,
        )
    return Corpora(sets=sets, build_seconds=time.perf_counter() - started)


@pytest.fixture(scope="session")
def bookstore_runs(bookstore_feasible, bookstore_infeasible) -> Corpora:
    """100 seeded runs of the six-activity fixture, half feasible, half not."""
    started = time.perf_counter()
    feasible = tuple(
        engine.run(
            bookstore_feasible.workflow,
            bookstore_feasible.registry,
            bookstore_feasible.requests,
            seed,
        )
        for seed in range(50)
    )
    infeasible = tuple(
        engine.run(
            bookstore_infeasible.workflow,
            bookstore_infeasible.registry,
            bookstore_infeasible.requests,
            seed,
        )
        for seed in range(50)
    )
    sets = {"bookstore-feasible-runs": feasible, "bookstore-infeasible-runs": infeasible}
    return Corpora(sets=sets, build_seconds=time.perf_counter() - started)
