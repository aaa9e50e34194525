"""Independent oracles and mutation builders used by the test suite.

Everything here deliberately re-implements logic the library also contains:
the oracles must stay independent of the paths they check.
"""

from __future__ import annotations

import itertools
import json
import tempfile
from functools import lru_cache
from pathlib import Path

from qosorch import engine, formats
from qosorch.model import (
    ActivityActor,
    ActivityState,
    AllocatedBinding,
    ClientRecord,
    Configuration,
    InstanceState,
    Message,
    MessageKind,
    QoSSpec,
    Role,
    RuleId,
    SS_ADDRESS,
    Trace,
    Transition,
    WsBinding,
    WSOIM_ADDRESS,
    WsoInstance,
    activity_address,
    client_address,
    get_wsoi,
    instance_address,
)
from qosorch.selection import AllocationResult, map_input_parameters


# ---------------------------------------------------------------------------
# Address oracle: the address grammar read with plain str.split.

_PREFIX_ROLES = {"ca": Role.CLIENT, "wsoi": Role.INSTANCE, "aa": Role.ACTIVITY, "ws": Role.SERVICE}


def reference_address(address: str) -> tuple:
    """(role, client id, activity name) of an address.  The manager and the
    selector have one fixed address each; any other role is named by the
    text before the first ':'.  A client or instance address embeds the
    whole rest as its client id; an activity or service address embeds the
    text up to its second ':' and ends in the activity name after it."""
    if address == WSOIM_ADDRESS:
        return Role.MANAGER, None, None
    if address == SS_ADDRESS:
        return Role.SELECTOR, None, None
    role = _PREFIX_ROLES.get(address.split(":", 1)[0])
    parts = address.split(":", 2 if role in (Role.ACTIVITY, Role.SERVICE) else 1)
    client_id = parts[1] if role is not None and len(parts) > 1 else None
    aa_name = parts[2] if len(parts) == 3 else None
    return role, client_id, aa_name


# ---------------------------------------------------------------------------
# Selection oracle: plain exhaustive search, no tie-breaking cleverness.

def oracle_feasible_combos(budget: QoSSpec, slots):
    """Yield every candidate combination that fits the budget."""
    for combo in itertools.product(*slots):
        worst = max(c.qos.response_time_ms for c in combo)
        total = sum(c.qos.cost_cents for c in combo)
        if worst <= budget.response_time_ms and total <= budget.cost_cents:
            yield combo, (total, worst)


def oracle_any_feasible(budget: QoSSpec, slots) -> bool:
    for _ in oracle_feasible_combos(budget, slots):
        return True
    return False


def oracle_min_cost(budget: QoSSpec, slots) -> int | None:
    costs = [cost for _, (cost, _) in oracle_feasible_combos(budget, slots)]
    return min(costs) if costs else None


def oracle_best(budget: QoSSpec, slots):
    """The feasible combination with the least (total cost, worst time,
    candidate ids) key, or None when nothing fits."""
    keyed = [
        ((total, worst, tuple(c.candidate_id for c in combo)), combo)
        for combo, (total, worst) in oracle_feasible_combos(budget, slots)
    ]
    return min(keyed, key=lambda pair: pair[0])[1] if keyed else None


# ---------------------------------------------------------------------------
# Interleaving oracle: count linear extensions of the per-request event posets.
#
# A feasible request contributes the chain create < select < grant followed,
# per activity, by events invoke(I) < ws-call(W) < ws-reply(P) plus ack(A) and
# notify(N) with I < A, P < N, and A < N (same-channel delivery order).  A
# denied request contributes only the chain create < select < deny.

def count_interleavings(request_shapes: list[tuple[int, bool]]) -> int:
    events: list[str] = []
    edges: list[tuple[str, str]] = []
    for idx, (n_activities, feasible) in enumerate(request_shapes):
        r1, r5, r2 = f"{idx}.r1", f"{idx}.r5", f"{idx}.r2"
        events += [r1, r5, r2]
        edges += [(r1, r5), (r5, r2)]
        if feasible:
            for k in range(n_activities):
                i, w, p, a, n = (f"{idx}.{k}.{tag}" for tag in "IWPAN")
                events += [i, w, p, a, n]
                edges += [(r2, i), (i, w), (w, p), (i, a), (p, n), (a, n)]
    bit = {event: 1 << j for j, event in enumerate(events)}
    preds: dict[str, int] = {event: 0 for event in events}
    for x, y in edges:
        preds[y] |= bit[x]
    full = (1 << len(events)) - 1

    @lru_cache(maxsize=None)
    def extensions(done: int) -> int:
        if done == full:
            return 1
        total = 0
        for event in events:
            b = bit[event]
            if done & b or (preds[event] & done) != preds[event]:
                continue
            total += extensions(done | b)
        return total

    count = extensions(0)
    extensions.cache_clear()
    return count


# ---------------------------------------------------------------------------
# Exploration oracle: a plain recursive depth-first search that calls step on
# every path, sharing nothing between paths.

def naive_explore(workflow, registry, requests) -> tuple[Trace, ...]:
    initial = engine.initial_configuration(workflow, registry, requests)
    traces: list[Trace] = []

    def walk(config, prefix):
        options = engine.enabled(config)
        if not options:
            traces.append(Trace(initial=initial, steps=tuple(prefix)))
        for message, _ in options:
            transition = engine.step(config, message)
            walk(transition.target, prefix + [transition])

    walk(initial, [])
    return tuple(traces)


# ---------------------------------------------------------------------------
# Mutant selectors

def always_grant_selector(request, workflow, registry) -> AllocationResult:
    """Grant with the first candidate per ontology, ignoring the budget."""
    per_activity = []
    for aa_name, ontology in workflow.activities:
        candidate = registry.query(ontology)[0]
        per_activity.append(AllocatedBinding(aa_name, candidate.candidate_id, candidate.qos))
    return AllocationResult(granted=True, per_activity=tuple(per_activity))


def always_deny_selector(request, workflow, registry) -> AllocationResult:
    return AllocationResult(granted=False)


# ---------------------------------------------------------------------------
# A forged trace in which a denied instance is later granted and serviced.

def denied_then_granted_trace(workflow, registry, requests) -> Trace:
    base = engine.run(workflow, registry, requests, seed=0)
    assert [t.rule for t in base.steps] == [
        RuleId.R1_WSOIM_CREATE,
        RuleId.R5_SS_SELECT,
        RuleId.R2A_SELECT_DENIED,
    ], "the base run must deny"
    t1, t2, t3 = base.steps
    cid = requests[0].client_id

    assignment = tuple(
        AllocatedBinding(
            aa_name=aa_name,
            candidate_id=registry.query(ontology)[0].candidate_id,
            qos=registry.query(ontology)[0].qos,
        )
        for aa_name, ontology in workflow.activities
    )
    reply = Message(
        kind=MessageKind.SELECT_REPLY_GRANTED,
        sender=SS_ADDRESS,
        receiver=instance_address(cid),
        client_id=cid,
        assignment=assignment,
    )

    # Rebuild the denial transition so the forged reply sits in its target pool.
    spliced_target = Configuration(
        actors=t3.target.actors, undelivered=t3.target.undelivered + (reply,)
    )
    t3_spliced = Transition(
        source=t3.source,
        rule=t3.rule,
        message=t3.message,
        target=spliced_target,
        emitted=t3.emitted,
    )

    # Forge the grant from the Denied state.
    denied = get_wsoi(spliced_target, cid)
    allocated = {binding.aa_name: binding for binding in assignment}
    inputs = map_input_parameters(denied.request.input_parameters, denied.activity_names())
    activities = tuple(
        ActivityActor(
            aa_name=aa.aa_name,
            wsoi_id=aa.wsoi_id,
            qos=allocated[aa.aa_name].qos,
            input_parameters=inputs[aa.aa_name],
            output_parameters=None,
            state=ActivityState.PREPARING,
            ws=WsBinding(
                endpoint=allocated[aa.aa_name].candidate_id,
                advertised_qos=allocated[aa.aa_name].qos,
            ),
        )
        for aa in denied.activities
    )
    granted = WsoInstance(
        request=denied.request, state=InstanceState.GRANTED, activities=activities
    )
    granted_reply = Message(
        kind=MessageKind.GRANTED_REPLY,
        sender=instance_address(cid),
        receiver=client_address(cid),
        client_id=cid,
        ontology=denied.request.ontology,
        qos=denied.request.qos,
    )
    invokes = tuple(
        Message(
            kind=MessageKind.INVOKE,
            sender=instance_address(cid),
            receiver=activity_address(cid, aa.aa_name),
            client_id=cid,
        )
        for aa in activities
    )
    record = spliced_target.actor(client_address(cid))
    assert isinstance(record, ClientRecord)
    forged_target = spliced_target.advance(
        reply,
        {
            instance_address(cid): granted,
            client_address(cid): record.with_received(granted_reply),
        },
        (granted_reply,) + invokes,
    )
    t4 = Transition(
        source=spliced_target,
        rule=RuleId.R2B_SELECT_GRANTED,
        message=reply,
        target=forged_target,
        emitted=(granted_reply,) + invokes,
    )

    # From the forged grant onwards the real rules drive the run to completion.
    steps = [t1, t2, t3_spliced, t4]
    config = forged_target
    while True:
        options = engine.enabled(config)
        if not options:
            break
        transition = engine.step(config, options[0][0])
        steps.append(transition)
        config = transition.target
    return Trace(initial=base.initial, steps=tuple(steps))


# ---------------------------------------------------------------------------
# Hand edits of trace records, made to real trace files.

def records_of(traces) -> list[dict]:
    """The records of the file that write_traces writes for traces, one per
    line."""
    return [json.loads(line) for line in written_lines(traces)]


def plain_trace_lines(traces) -> list[str]:
    """The lines of the file that write_traces writes for traces, each
    record built plainly from the library's record functions, with the
    changed actors found by comparing snapshots address by address, and
    encoded on its own by json.dumps."""
    records: list[dict] = []
    for trace_index, trace in enumerate(traces):
        initial = formats.config_to_record(trace.initial, formats.actor_to_record)
        records.append({"record": "trace", "trace": trace_index, "initial": initial})
        for index, transition in enumerate(trace.steps):
            before, after = dict(transition.source.actors), dict(transition.target.actors)
            changed = []
            for address in sorted(before.keys() | after.keys()):
                old, new = before.get(address), after.get(address)
                if old != new:
                    changed.append(
                        {
                            "address": address,
                            "before": None if old is None else formats.actor_to_record(address, old),
                            "after": None if new is None else formats.actor_to_record(address, new),
                        }
                    )
            records.append(
                {
                    "record": "transition",
                    "trace": trace_index,
                    "index": index,
                    "rule": transition.rule.value,
                    "consumed": formats.message_to_record(transition.message),
                    "emitted": [formats.message_to_record(m) for m in transition.emitted],
                    "changed": changed,
                }
            )
    return [json.dumps(record, sort_keys=True) for record in records]


def written_lines(traces) -> list[str]:
    """The lines write_traces writes for traces."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "traces.jsonl"
        formats.write_traces(traces, path)
        return path.read_text(encoding="utf-8").splitlines()


def read_records(records) -> list[Trace]:
    """The traces read_traces reads from a file of records, one per line."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "traces.jsonl"
        lines = [json.dumps(record, sort_keys=True) + "\n" for record in records]
        path.write_text("".join(lines), encoding="utf-8")
        return formats.read_traces(path)


def restate_befores(records: list[dict]) -> None:
    """Set every `before` in the transition records to the snapshot the
    records last gave its address, so that an edited `after` carries into
    the next change of that actor as the reader requires."""
    latest: dict[tuple[int, str], dict] = {}
    for record in records:
        if record["record"] == "trace":
            for actor in record["initial"]["actors"]:
                latest[record["trace"], actor["address"]] = actor
        elif record["record"] == "transition":
            for change in record["changed"]:
                key = record["trace"], change["address"]
                change["before"] = latest.get(key)
                latest[key] = change["after"]
