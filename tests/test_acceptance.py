"""Acceptance suite.

One test per criterion; each prints a single pass/fail line.  Run with
`pytest tests/test_acceptance.py -v -s` to see the report while the suite
executes.
"""

import random
import time

import support
from qosorch import cli, engine, formats
from qosorch.conformance import (
    P_GRANT_FEASIBILITY,
    P_STATE_MONOTONICITY,
    check_pyramid,
    check_system,
)
from qosorch.model import (
    ActivityState,
    InstanceState,
    MessageKind,
    QoSSpec,
    RuleId,
    get_wsoi,
)
from qosorch.registry import Registry
from qosorch.selection import CandidateService, aggregate_qos, qos_allocate


def report(number: int, name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail and not ok else ""
    print(f"criterion {number} ({name}): {status} [{elapsed:.2f}s]{suffix}")


def terminal_replies(trace, client_id):
    counts = {MessageKind.GRANTED_REPLY: 0, MessageKind.COMPLETED_REPLY: 0, MessageKind.DENIED_REPLY: 0}
    for transition in trace.steps:
        for message in transition.emitted:
            if message.kind in counts and message.client_id == client_id:
                counts[message.kind] += 1
    return counts


def seeded_clients(trace):
    return [
        m.client_id
        for m in trace.initial.undelivered
        if m.kind is MessageKind.WSO_REQUEST
    ]


def test_criterion_1_aggregation_exactness():
    rng = random.Random(108)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        specs = [
            QoSSpec(rng.randint(0, 10**6), rng.randint(0, 10**6))
            for _ in range(rng.randint(0, 8))
        ]
        worst, total = 0, 0
        for spec in specs:
            if spec.response_time_ms > worst:
                worst = spec.response_time_ms
            total += spec.cost_cents
        if aggregate_qos(specs) != QoSSpec(worst, total):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 1.0
    report(1, "aggregation exactness", ok, elapsed, f"{mismatches} mismatches")
    assert mismatches == 0
    assert elapsed < 1.0


def test_criterion_2_selector_oracle_equivalence():
    rng = random.Random(216)
    started = time.perf_counter()
    problems = []
    grants = 0
    for case in range(500):
        activities = []
        registry = []
        for o in range(rng.randint(1, 6)):
            ontology = f"O{o}"
            activities.append((f"act{o}", ontology))
            for c in range(rng.randint(1, 4)):
                registry.append(
                    CandidateService(
                        f"o{o}c{c}", ontology, QoSSpec(rng.randint(0, 200), rng.randint(0, 40))
                    )
                )
        budget = QoSSpec(rng.randint(0, 250), rng.randint(0, 80))
        slots = [[c for c in registry if c.ontology == o] for _, o in activities]
        result = qos_allocate(budget, activities, Registry.from_candidates(registry))
        feasible = support.oracle_any_feasible(budget, slots)
        if result.granted != feasible:
            problems.append(f"case {case}: decision mismatch")
            continue
        if result.granted:
            grants += 1
            aggregate = result.aggregate()
            if (
                aggregate.response_time_ms > budget.response_time_ms
                or aggregate.cost_cents > budget.cost_cents
            ):
                problems.append(f"case {case}: infeasible grant")
            if aggregate.cost_cents != support.oracle_min_cost(budget, slots):
                problems.append(f"case {case}: not cost-minimal")
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 10.0
    report(2, "selector oracle equivalence", ok, elapsed, "; ".join(problems[:3]))
    assert not problems
    assert 0 < grants < 500  # both decisions exercised
    assert elapsed < 10.0


def test_criterion_3_dichotomy(explored_corpora):
    started = time.perf_counter()
    violations = []
    for key, traces in explored_corpora.sets.items():
        for index, trace in enumerate(traces):
            for client_id in seeded_clients(trace):
                counts = terminal_replies(trace, client_id)
                accepted = (
                    counts[MessageKind.GRANTED_REPLY],
                    counts[MessageKind.COMPLETED_REPLY],
                    counts[MessageKind.DENIED_REPLY],
                ) == (1, 1, 0)
                rejected = (
                    counts[MessageKind.GRANTED_REPLY],
                    counts[MessageKind.COMPLETED_REPLY],
                    counts[MessageKind.DENIED_REPLY],
                ) == (0, 0, 1)
                if not (accepted ^ rejected):
                    violations.append(f"{key}[{index}] client {client_id}: {counts}")
    elapsed = time.perf_counter() - started + explored_corpora.build_seconds
    counts_line = ", ".join(f"{k}={len(v)}" for k, v in explored_corpora.sets.items())
    ok = not violations and elapsed < 30.0
    report(3, f"dichotomy over explored sets ({counts_line})", ok, elapsed, "; ".join(violations[:3]))
    assert not violations
    assert elapsed < 30.0


def test_criterion_4_lifecycle_constraints(explored_corpora, bookstore_runs):
    started = time.perf_counter()
    failing = []
    for key, traces in {**explored_corpora.sets, **bookstore_runs.sets}.items():
        verdict = check_system(traces)
        if not verdict.passed:
            failing.append(f"{key}: {verdict.violations[0].witness}")
    elapsed = time.perf_counter() - started + bookstore_runs.build_seconds
    ok = not failing and elapsed < 60.0
    report(4, "instance lifecycle and binding constraints", ok, elapsed, "; ".join(failing))
    assert not failing
    assert elapsed < 60.0


def test_criterion_5_refinement_chain(explored_corpora, bookstore_runs,
                                      bookstore_infeasible):
    started = time.perf_counter()
    failing = []
    for key, traces in {**explored_corpora.sets, **bookstore_runs.sets}.items():
        verdict = check_pyramid(traces)
        if not verdict.passed:
            failing.append(f"{key}: breaks at {verdict.first_failed}")

    # Mutation: grant regardless of the budget -> only the service layer may fail.
    mutated = engine.run(
        bookstore_infeasible.workflow,
        bookstore_infeasible.registry,
        bookstore_infeasible.requests,
        seed=0,
        selector=support.always_grant_selector,
    )
    verdict_a = check_pyramid([mutated])
    mutation_a_ok = (
        verdict_a.behavior.passed
        and verdict_a.system.passed
        and not verdict_a.service.passed
        and P_GRANT_FEASIBILITY in {v.property_id for v in verdict_a.service.violations}
    )
    if not mutation_a_ok:
        failing.append("infeasible-grant mutation not isolated at the service layer")

    # Mutation: a denied instance is later granted -> the system layer must
    # flag the backwards state move (the forgery breaks behavior replay too).
    forged = support.denied_then_granted_trace(
        bookstore_infeasible.workflow,
        bookstore_infeasible.registry,
        bookstore_infeasible.requests,
    )
    verdict_b = check_pyramid([forged])
    mutation_b_ok = (
        not verdict_b.system.passed
        and P_STATE_MONOTONICITY in {v.property_id for v in verdict_b.system.violations}
        and not verdict_b.behavior.passed
        and verdict_b.first_failed == "behavior"
    )
    if not mutation_b_ok:
        failing.append("denied-to-granted mutation not caught at the system layer")

    elapsed = time.perf_counter() - started
    ok = not failing and elapsed < 60.0
    report(5, "three-layer refinement chain and mutations", ok, elapsed, "; ".join(failing))
    assert not failing
    assert elapsed < 60.0


def test_criterion_6_initial_state_audit(explored_corpora, bookstore_runs):
    started = time.perf_counter()
    problems = []
    for key, traces in {**explored_corpora.sets, **bookstore_runs.sets}.items():
        for index, trace in enumerate(traces):
            for transition in trace.steps:
                if transition.rule is not RuleId.R1_WSOIM_CREATE:
                    continue
                instance = get_wsoi(transition.target, transition.message.client_id)
                field_exact = (
                    instance is not None
                    and instance.state is InstanceState.WAITING
                    and instance.output_parameters is None
                    and all(
                        aa.state is ActivityState.PREPARING
                        and aa.qos is None
                        and aa.input_parameters is None
                        and aa.output_parameters is None
                        and aa.ws.endpoint is None
                        and aa.ws.advertised_qos is None
                        for aa in instance.activities
                    )
                )
                if not field_exact:
                    problems.append(f"{key}[{index}]")
    elapsed = time.perf_counter() - started
    ok = not problems
    report(6, "creation snapshot audit", ok, elapsed, "; ".join(problems[:3]))
    assert not problems


def test_criterion_7_determinism(fixtures_dir, tmp_path, bookstore_feasible, capsys):
    started = time.perf_counter()
    args = [
        "run",
        "--workflow", str(fixtures_dir / "bookstore_workflow.jsonl"),
        "--registry", str(fixtures_dir / "bookstore_registry.jsonl"),
        "--requests", str(fixtures_dir / "bookstore_requests_feasible.jsonl"),
        "--seed", "42",
    ]
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli.main(args + ["--trace-out", str(first)]) == cli.EXIT_OK
    assert cli.main(args + ["--trace-out", str(second)]) == cli.EXIT_OK
    capsys.readouterr()
    identical = first.read_bytes() == second.read_bytes()

    orders = {
        tuple(
            (t.rule, t.message.kind, t.message.sender)
            for t in engine.run(
                bookstore_feasible.workflow,
                bookstore_feasible.registry,
                bookstore_feasible.requests,
                seed,
            ).steps
        )
        for seed in range(20)
    }
    elapsed = time.perf_counter() - started
    ok = identical and len(orders) >= 2
    report(
        7,
        "seed determinism",
        ok,
        elapsed,
        f"identical={identical}, distinct orders={len(orders)}",
    )
    assert identical
    assert len(orders) >= 2


def test_criterion_8_golden_trace(fixtures_dir, golden_dir, tmp_path, capsys):
    started = time.perf_counter()
    out = tmp_path / "bookstore_seed0.jsonl"
    code = cli.main([
        "run",
        "--workflow", str(fixtures_dir / "bookstore_workflow.jsonl"),
        "--registry", str(fixtures_dir / "bookstore_registry.jsonl"),
        "--requests", str(fixtures_dir / "bookstore_requests_feasible.jsonl"),
        "--seed", "0",
        "--trace-out", str(out),
    ])
    capsys.readouterr()
    golden_path = golden_dir / "bookstore_seed0.jsonl"
    byte_exact = code == cli.EXIT_OK and out.read_bytes() == golden_path.read_bytes()

    trace = formats.read_traces(golden_path)[0]
    rules = [t.rule for t in trace.steps]
    counts = {rule: rules.count(rule) for rule in set(rules)}
    structure_ok = (
        rules[:3] == [RuleId.R1_WSOIM_CREATE, RuleId.R5_SS_SELECT, RuleId.R2B_SELECT_GRANTED]
        and rules[-1] is RuleId.R4A_NOTIFY_ALL_RETURNED
        and len(rules) == 33
        and counts.get(RuleId.R6_AA_INVOKE) == 6
        and counts.get(RuleId.R8_WS_INVOKE) == 6
        and counts.get(RuleId.R7_AA_RETURN) == 6
        and counts.get(RuleId.R3_INVOKE_ACK) == 6
        and counts.get(RuleId.R4A_NOTIFY_ALL_RETURNED) == 1
        and counts.get(RuleId.R4B_NOTIFY_SOME_PENDING) == 5
    )
    # Per activity, invocation precedes the service call, which precedes the
    # return.
    per_activity_ok = True
    for aa_name, _ in formats.load_workflow(fixtures_dir / "bookstore_workflow.jsonl").activities:
        positions = {}
        for index, transition in enumerate(trace.steps):
            receiver = transition.message.receiver
            if receiver.endswith(f":{aa_name}") or transition.message.aa_name == aa_name:
                positions.setdefault(transition.rule, index)
        order = [
            positions.get(RuleId.R6_AA_INVOKE),
            positions.get(RuleId.R8_WS_INVOKE),
            positions.get(RuleId.R7_AA_RETURN),
        ]
        if None in order or order != sorted(order):
            per_activity_ok = False

    elapsed = time.perf_counter() - started
    ok = byte_exact and structure_ok and per_activity_ok
    report(
        8,
        "frozen golden trace",
        ok,
        elapsed,
        f"bytes={byte_exact}, structure={structure_ok}, per-activity={per_activity_ok}",
    )
    assert byte_exact
    assert structure_ok
    assert per_activity_ok


def test_criterion_8_denied_golden_trace(fixtures_dir, golden_dir, tmp_path, capsys):
    """The frozen bytes of a denied run: the selector's denial and the
    instance's reply to its client."""
    started = time.perf_counter()
    out = tmp_path / "bookstore_infeasible_seed0.jsonl"
    code = cli.main([
        "run",
        "--workflow", str(fixtures_dir / "bookstore_workflow.jsonl"),
        "--registry", str(fixtures_dir / "bookstore_registry.jsonl"),
        "--requests", str(fixtures_dir / "bookstore_requests_infeasible.jsonl"),
        "--seed", "0",
        "--trace-out", str(out),
    ])
    capsys.readouterr()
    golden_path = golden_dir / "bookstore_infeasible_seed0.jsonl"
    byte_exact = code == cli.EXIT_OK and out.read_bytes() == golden_path.read_bytes()
    trace = formats.read_traces(golden_path)[0]
    emitted = [[m.kind for m in t.emitted] for t in trace.steps]
    structure_ok = [t.rule for t in trace.steps] == [
        RuleId.R1_WSOIM_CREATE,
        RuleId.R5_SS_SELECT,
        RuleId.R2A_SELECT_DENIED,
    ] and emitted[1:] == [[MessageKind.SELECT_REPLY_DENIED], [MessageKind.DENIED_REPLY]]
    elapsed = time.perf_counter() - started
    report(
        8,
        "frozen denied golden trace",
        byte_exact and structure_ok,
        elapsed,
        f"bytes={byte_exact}, structure={structure_ok}",
    )
    assert byte_exact
    assert structure_ok
