"""Three-layer trace conformance checking.

The layers refine each other:

* behavior  -- every snapshot is well-formed where it first appears, every
               message belongs to the closed vocabulary, every pending
               message's addresses resolve, and every transition is
               reproducible by re-applying the rule engine;
* system    -- instance creation snapshots are field-exact, requests and
               activity sets stay constant, states move monotonically,
               denied instances stay unbound, bindings imply a grant, and
               every instance eventually reaches a terminal state;
* service   -- per client and per trace, exactly one of acceptance (with the
               final bound services offered by the registry and aggregating
               within the requested budget) or rejection happens, and every
               rejection agrees with an independent brute-force selection
               oracle.

Checkers re-derive everything from the configurations themselves; they never
trust engine annotations.  The selection oracle here is intentionally a
separate implementation from the selector the engine uses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from . import engine as engine_mod
from .model import (
    ActivityState,
    Configuration,
    InstanceState,
    ManagerState,
    Message,
    MessageKind,
    QoSSpec,
    RuleId,
    SS_ADDRESS,
    SelectorState,
    Trace,
    Transition,
    WSOIM_ADDRESS,
    WsoInstance,
    activity_state_can_follow,
    get_wsoi,
    instance_state_can_follow,
    message_schema_error,
    resolvable_addresses,
    snapshot_error,
)
from .registry import Registry
from .selection import AllocationResult, CandidateService

# Property identifiers cited by violations.
P_STATE_DOMAIN = "state-domain"
P_MESSAGE_VOCABULARY = "message-vocabulary"
P_DELIVERY_ORDER = "delivery-order"
P_RULE_REPLAY = "rule-replay"
P_UNIQUE_CREATION = "unique-creation"
P_CREATION_SNAPSHOT = "creation-snapshot"
P_REQUEST_CONSTANCY = "request-constancy"
P_STATE_MONOTONICITY = "state-monotonicity"
P_WAITING_PROGRESS = "waiting-progress"
P_GRANTED_PROGRESS = "granted-progress"
P_DENIED_UNBOUND = "denied-unbound"
P_BINDING_REQUIRES_GRANT = "binding-requires-grant"
P_REPLY_DICHOTOMY = "reply-dichotomy"
P_GRANT_FEASIBILITY = "grant-feasibility"
P_DENIAL_ORACLE = "denial-oracle"
P_PYRAMID_CHAIN = "pyramid-chain"


@dataclass(frozen=True)
class Violation:
    property_id: str
    trace_index: int
    transition_index: int | None
    witness: str


@dataclass(frozen=True)
class Verdict:
    passed: bool
    violations: tuple[Violation, ...]

    @classmethod
    def from_violations(cls, violations: Sequence[Violation]) -> Verdict:
        ordered = tuple(violations)
        return cls(passed=not ordered, violations=ordered)


@dataclass(frozen=True)
class PyramidVerdict(Verdict):
    behavior: Verdict
    system: Verdict
    service: Verdict

    @property
    def first_failed(self) -> str | None:
        for name, verdict in (
            ("behavior", self.behavior),
            ("system", self.system),
            ("service", self.service),
        ):
            if not verdict.passed:
                return name
        return None


# ---------------------------------------------------------------------------
# Behavior layer

def _replay_selector(emitted: Sequence[Message]):
    """A selector that reproduces the decision recorded in a selection's
    emitted messages."""

    def selector(request, workflow, _registry) -> AllocationResult:
        if len(emitted) != 1 or emitted[0].kind not in (
            MessageKind.SELECT_REPLY_GRANTED,
            MessageKind.SELECT_REPLY_DENIED,
        ):
            raise ValueError("selection must emit exactly one reply")
        reply = emitted[0]
        if reply.kind is MessageKind.SELECT_REPLY_DENIED:
            return AllocationResult(granted=False)
        ontology_of = dict(workflow.activities)
        per_activity = tuple(
            (
                binding.aa_name,
                CandidateService(
                    candidate_id=binding.candidate_id,
                    ontology=ontology_of.get(binding.aa_name, "unknown"),
                    qos=binding.qos,
                ),
                binding.qos,
            )
            for binding in (reply.assignment or ())
        )
        return AllocationResult(granted=True, per_activity=per_activity)

    return selector


_EMPTY = Configuration(actors=())


def _steps(trace: Trace):
    """Each configuration of a trace as (position, introducer, source, target,
    new messages).  The introducer is the object that brings the
    configuration in: its transition, or for the initial configuration, at
    position None, the configuration itself, which counts as a change from
    the empty configuration."""
    initial = trace.initial
    yield None, initial, _EMPTY, initial, initial.undelivered
    for index, t in enumerate(trace.steps):
        yield index, t, t.source, t.target, t.emitted


def _introduced_notes(source, target, new_messages, resolvable: set[str]) -> list[tuple[str, str]]:
    """(property, witness) for the snapshots and messages a configuration
    introduces and for its pool's addresses.  Moves resolvable from the
    source's addresses to the target's."""
    notes: list[tuple[str, str]] = []
    for address, before, after in source.changes(target):
        if before is not None:
            resolvable.difference_update(resolvable_addresses(address, before))
        if after is None:
            continue
        resolvable.update(resolvable_addresses(address, after))
        error = snapshot_error(address, after)
        if error is not None:
            notes.append((P_MESSAGE_VOCABULARY, error))
        if not isinstance(after, WsoInstance):
            continue
        if not isinstance(after.state, InstanceState):
            witness = f"instance {after.client_id!r} has state {after.state!r}"
            notes.append((P_STATE_DOMAIN, witness))
        for aa in after.activities:
            if not isinstance(aa.state, ActivityState):
                notes.append((P_STATE_DOMAIN, f"activity {aa.aa_name!r} has state {aa.state!r}"))
    for message in target.undelivered:
        for address in (message.sender, message.receiver):
            if address not in resolvable:
                notes.append(
                    (
                        P_MESSAGE_VOCABULARY,
                        f"{message.kind.value} references unresolvable address {address!r}",
                    )
                )
    for message in new_messages:
        schema_error = message_schema_error(message)
        if schema_error is not None:
            notes.append((P_MESSAGE_VOCABULARY, schema_error))
    return notes


def _replay_notes(transition: Transition) -> list[tuple[str, str]]:
    """(property, witness) for a transition the rule engine does not
    reproduce."""
    selector = None
    if transition.rule is RuleId.R5_SS_SELECT:
        selector = _replay_selector(transition.emitted)
    try:
        replayed = engine_mod.step(transition.source, transition.message, selector=selector)
    except engine_mod.MessageNotPendingError:
        return [(P_RULE_REPLAY, "consumed message was not pending")]
    except engine_mod.NotDeliverableError:
        return [(P_DELIVERY_ORDER, "consumed message overtook an older one on its channel")]
    except Exception as exc:  # corrupted data can break replay anywhere
        return [(P_RULE_REPLAY, f"replay failed: {exc}")]
    notes = []
    if replayed.rule is not transition.rule:
        notes.append(
            (
                P_RULE_REPLAY,
                f"recorded rule {transition.rule.value}, replay fired {replayed.rule.value}",
            )
        )
    if replayed.emitted != transition.emitted:
        notes.append((P_RULE_REPLAY, "emitted messages differ from replay"))
    if replayed.target != transition.target:
        notes.append((P_RULE_REPLAY, "target configuration differs from replay"))
    return notes


def check_behavior(traces: Sequence[Trace]) -> Verdict:
    """Check a trace set against the transition rules by replaying every step.

    Each snapshot and message is checked where it first appears; every
    pending message's addresses must resolve in every configuration.  The
    selection decision itself is taken as recorded (the selector is free to
    grant or deny at this layer); everything downstream of the decision must
    be reproducible mechanically.

    What a transition yields depends on the transition alone, so a
    transition that several traces share is checked once and its violations
    are stamped at each (trace, index) where it occurs.  The one piece of
    running state is the set of resolvable addresses, which is a function of
    the configuration's actors: resolvable_addresses gives disjoint sets for
    distinct actor addresses, so removing a replaced actor's addresses and
    adding its successor's leaves exactly the union over the target's
    actors.  After a transition checked earlier the set is not kept up to
    date, and the next transition checked afresh rebuilds it from its
    source's actors.
    """
    violations: list[Violation] = []
    memo: dict = {}
    for trace_index, trace in enumerate(traces):
        resolvable: set[str] | None = None  # None: rebuild from the next source's actors
        for index, introducer, source, target, new_messages in _steps(trace):
            # Entries hold their introducer, so no id is reused while the memo lives.
            entry = memo.get(id(introducer))
            if entry is not None and entry[0] is introducer:
                resolvable = None
            else:
                if resolvable is None:
                    resolvable = {
                        resolved
                        for address, snapshot in source.actors
                        for resolved in resolvable_addresses(address, snapshot)
                    }
                notes = _introduced_notes(source, target, new_messages, resolvable)
                if index is not None:
                    notes.extend(_replay_notes(introducer))
                entry = memo[id(introducer)] = (introducer, notes)
            violations.extend(
                Violation(property_id, trace_index, index, witness)
                for property_id, witness in entry[1]
            )
    return Verdict.from_violations(violations)


# ---------------------------------------------------------------------------
# System layer

def _require_shared_initial(traces: Sequence[Trace]) -> None:
    if not traces:
        return
    first = traces[0].initial
    for trace in traces[1:]:
        if trace.initial != first:
            raise ValueError("trace sets must share one initial configuration")


def _seeded_requests(config: Configuration) -> list[Message]:
    return [m for m in config.undelivered if m.kind is MessageKind.WSO_REQUEST]


def _check_creation(trace, note) -> None:
    for request_msg in _seeded_requests(trace.initial):
        creations = [
            (index, t)
            for index, t in enumerate(trace.steps)
            if t.rule is RuleId.R1_WSOIM_CREATE and t.message == request_msg
        ]
        if len(creations) != 1:
            note(
                P_UNIQUE_CREATION,
                None,
                f"request {request_msg.client_id!r} processed at "
                f"{len(creations)} stages, expected exactly one",
            )
            continue
        index, transition = creations[0]
        instance = get_wsoi(transition.target, request_msg.client_id)
        if instance is None:
            note(P_CREATION_SNAPSHOT, index, "creation produced no instance")
            continue
        problems: list[str] = []
        request = instance.request
        if (
            request.client_id != request_msg.client_id
            or request.ontology != request_msg.ontology
            or request.qos != request_msg.qos
            or request.input_parameters != (request_msg.params or ())
        ):
            problems.append("stored request differs from the incoming request")
        if instance.state is not InstanceState.WAITING:
            problems.append(f"state is {instance.state.value}, expected Waiting")
        if instance.output_parameters is not None:
            problems.append("outputs are set at creation")
        if not instance.activities:
            problems.append("instance has no activities")
        for aa in instance.activities:
            if aa.qos is not None or aa.input_parameters is not None or aa.output_parameters is not None:
                problems.append(f"activity {aa.aa_name!r} carries data at creation")
            if aa.state is not ActivityState.PREPARING:
                problems.append(f"activity {aa.aa_name!r} is {aa.state.value}, expected Preparing")
            if aa.ws.bound:
                problems.append(f"activity {aa.aa_name!r} is bound at creation")
            if aa.wsoi_id != request_msg.client_id:
                problems.append(f"activity {aa.aa_name!r} names owner {aa.wsoi_id!r}")
        for problem in problems:
            note(P_CREATION_SNAPSHOT, index, problem)


def _check_succession(prior: WsoInstance, current, note) -> None:
    """Constancy and monotonicity of an instance replaced at one address."""
    cid = prior.client_id
    if not isinstance(current, WsoInstance):
        note(P_REQUEST_CONSTANCY, f"instance {cid!r} disappeared")
        return
    if current.request != prior.request:
        note(P_REQUEST_CONSTANCY, f"request of {cid!r} changed")
    if set(current.activity_names()) != set(prior.activity_names()):
        note(P_REQUEST_CONSTANCY, f"activity set of {cid!r} changed")
    if not instance_state_can_follow(prior.state, current.state):
        note(
            P_STATE_MONOTONICITY,
            f"instance {cid!r} moved {prior.state.value} -> {current.state.value}",
        )
    current_states = {aa.aa_name: aa.state for aa in current.activities}
    for prior_aa in prior.activities:
        state = current_states.get(prior_aa.aa_name)
        if state is not None and not activity_state_can_follow(prior_aa.state, state):
            note(
                P_STATE_MONOTONICITY,
                f"activity {prior_aa.aa_name!r} of {cid!r} moved "
                f"{prior_aa.state.value} -> {state.value}",
            )


def _lifecycle_changes(source: Configuration, target: Configuration):
    """What one configuration change means to the instances: (property,
    witness) for its succession and binding faults, and (address, state) for
    each new instance snapshot."""
    notes: list[tuple[str, str]] = []
    states: list[tuple[str, InstanceState]] = []

    def note(property_id: str, witness: str) -> None:
        notes.append((property_id, witness))

    for address, prior, current in source.changes(target):
        if isinstance(prior, WsoInstance):
            _check_succession(prior, current, note)
        if not isinstance(current, WsoInstance):
            continue
        states.append((address, current.state))
        cid = current.client_id
        bound = [aa.aa_name for aa in current.activities if aa.ws.bound]
        if current.state is InstanceState.DENIED and bound:
            note(P_DENIED_UNBOUND, f"denied instance {cid!r} holds bindings {bound}")
        if bound and current.state not in (
            InstanceState.GRANTED,
            InstanceState.SERVICING,
            InstanceState.COMPLETED,
        ):
            note(
                P_BINDING_REQUIRES_GRANT,
                f"instance {cid!r} is {current.state.value} with bindings {bound}",
            )
    return notes, states


def _check_lifecycle(trace, note, memo: dict) -> None:
    """One walk over the changes, following each instance by its address:
    succession where a prior instance is replaced, binding constraints on
    each new instance snapshot, and progress of the final instances judged
    from the states each went through.  What a change means depends on the
    change alone, so memo keeps it per introducer for the whole trace set;
    only the visited states are kept per trace."""
    visited: dict[str, set[InstanceState]] = {}
    for index, introducer, source, target, _ in _steps(trace):
        # Entries hold their introducer, so no id is reused while a memo lives.
        entry = memo.get(id(introducer))
        if entry is None or entry[0] is not introducer:
            entry = memo[id(introducer)] = (introducer, _lifecycle_changes(source, target))
        notes, states = entry[1]
        for property_id, witness in notes:
            note(property_id, index, witness)
        for address, state in states:
            visited.setdefault(address, set()).add(state)
    for address, instance in trace.final.instances():
        cid = instance.client_id
        states = visited[address]
        if instance.state is InstanceState.WAITING:
            note(P_WAITING_PROGRESS, None, f"instance {cid!r} never left Waiting")
        if InstanceState.GRANTED in states:
            if instance.state is not InstanceState.COMPLETED:
                note(
                    P_GRANTED_PROGRESS,
                    None,
                    f"granted instance {cid!r} ended {instance.state.value}",
                )
            elif InstanceState.SERVICING not in states:
                note(P_GRANTED_PROGRESS, None, f"instance {cid!r} completed without servicing")


def check_system(traces: Sequence[Trace]) -> Verdict:
    """Check instance-lifecycle and binding-state constraints over a trace set.

    All traces must start from the same initial configuration.  A transition
    that several traces share is examined once.
    """
    _require_shared_initial(traces)
    violations: list[Violation] = []
    memo: dict = {}
    for trace_index, trace in enumerate(traces):
        def note(property_id: str, transition_index: int | None, witness: str) -> None:
            violations.append(Violation(property_id, trace_index, transition_index, witness))

        _check_creation(trace, note)
        _check_lifecycle(trace, note, memo)
    return Verdict.from_violations(violations)


# ---------------------------------------------------------------------------
# Service layer

def _oracle_feasible(
    request_qos: QoSSpec, ontologies: Sequence[str], registry: Registry
) -> bool:
    """Independent brute-force feasibility check over all candidate combos.

    A combination's response time is its slowest candidate's, so only
    candidates within the time bound can take part: each slot is cut to
    those before the combinations of the rest are enumerated."""
    bound = request_qos.response_time_ms
    slots = [
        [c for c in registry.query(ontology) if c.qos.response_time_ms <= bound]
        for ontology in ontologies
    ]
    if any(not slot for slot in slots):
        return False
    for combo in itertools.product(*slots):
        if sum(c.qos.cost_cents for c in combo) <= request_qos.cost_cents:
            return True
    return False


_CLIENT_REPLIES = (MessageKind.GRANTED_REPLY, MessageKind.COMPLETED_REPLY, MessageKind.DENIED_REPLY)


def _client_replies(trace: Trace) -> dict[str, dict[MessageKind, list[int]]]:
    """Per client id, the indexes of the transitions that emit each kind of
    terminal reply to it, in one pass over the trace."""
    replies: dict[str, dict[MessageKind, list[int]]] = {}
    for index, transition in enumerate(trace.steps):
        for message in transition.emitted:
            if message.kind in _CLIENT_REPLIES:
                by_kind = replies.get(message.client_id)
                if by_kind is None:
                    by_kind = replies[message.client_id] = {kind: [] for kind in _CLIENT_REPLIES}
                by_kind[message.kind].append(index)
    return replies


def check_service(traces: Sequence[Trace]) -> Verdict:
    """Check the acceptance/rejection dichotomy and its QoS obligations.

    Every seeded request must, in every trace, be either accepted exactly once
    (granted and later completed, with every final bound service a candidate
    the registry offers for its activity at the bound QoS, aggregating within
    the requested budget) or rejected exactly once (with the rejection
    re-verified against the brute-force selection oracle).  The traces share
    one initial configuration, so the oracle runs at most once per seeded
    request.
    """
    _require_shared_initial(traces)
    if not traces:
        return Verdict.from_violations(())
    initial = traces[0].initial
    manager = initial.actor(WSOIM_ADDRESS)
    selector_state = initial.actor(SS_ADDRESS)
    workflow = manager.workflow if isinstance(manager, ManagerState) else None
    registry = selector_state.registry if isinstance(selector_state, SelectorState) else None
    seeded = _seeded_requests(initial)
    feasible: dict[int, bool] = {}  # seeded position -> oracle verdict
    violations: list[Violation] = []
    for trace_index, trace in enumerate(traces):
        def note(property_id: str, transition_index: int | None, witness: str) -> None:
            violations.append(Violation(property_id, trace_index, transition_index, witness))

        trace_replies = _client_replies(trace)
        no_replies = {kind: [] for kind in _CLIENT_REPLIES}
        for position, request_msg in enumerate(seeded):
            cid = request_msg.client_id
            replies = trace_replies.get(cid, no_replies)
            granted = len(replies[MessageKind.GRANTED_REPLY])
            completed = len(replies[MessageKind.COMPLETED_REPLY])
            denied = len(replies[MessageKind.DENIED_REPLY])
            accepted = (granted, completed, denied) == (1, 1, 0)
            rejected = (granted, completed, denied) == (0, 0, 1)
            if not (accepted ^ rejected):
                note(
                    P_REPLY_DICHOTOMY,
                    None,
                    f"client {cid!r} saw granted={granted} completed={completed} "
                    f"denied={denied}; expected one acceptance xor one rejection",
                )
                continue
            if accepted:
                instance = get_wsoi(trace.final, cid)
                if instance is None:
                    note(P_GRANT_FEASIBILITY, None, f"no final instance for {cid!r}")
                    continue
                bound = [aa.ws.advertised_qos for aa in instance.activities if aa.ws.bound]
                if len(bound) != len(instance.activities):
                    note(
                        P_GRANT_FEASIBILITY,
                        None,
                        f"accepted instance {cid!r} has unbound activities",
                    )
                    continue
                completion = replies[MessageKind.COMPLETED_REPLY][0]
                worst = max(q.response_time_ms for q in bound)
                total = sum(q.cost_cents for q in bound)
                budget = request_msg.qos
                if budget is None:
                    note(
                        P_GRANT_FEASIBILITY,
                        completion,
                        f"request of client {cid!r} carries no QoS budget",
                    )
                elif worst > budget.response_time_ms or total > budget.cost_cents:
                    note(
                        P_GRANT_FEASIBILITY,
                        completion,
                        f"client {cid!r} accepted with aggregate ({worst}ms,{total}c) "
                        f"over budget ({budget.response_time_ms}ms,{budget.cost_cents}c)",
                    )
                if workflow is None or registry is None:
                    note(P_GRANT_FEASIBILITY, completion, "missing manager or selector state")
                    continue
                ontology_of = dict(workflow.activities)
                for aa in instance.activities:
                    offered = registry.query(ontology_of.get(aa.aa_name))
                    if (aa.ws.endpoint, aa.ws.advertised_qos) not in [
                        (c.candidate_id, c.qos) for c in offered
                    ]:
                        note(
                            P_GRANT_FEASIBILITY,
                            completion,
                            f"client {cid!r} bound {aa.aa_name!r} to {aa.ws.endpoint!r}, "
                            f"which the registry does not offer at that QoS for that activity",
                        )
            else:
                rejection_index = replies[MessageKind.DENIED_REPLY][0]
                if workflow is None or registry is None:
                    note(P_DENIAL_ORACLE, rejection_index, "missing manager or selector state")
                    continue
                if request_msg.qos is None:
                    note(
                        P_DENIAL_ORACLE,
                        rejection_index,
                        f"request of client {cid!r} carries no QoS budget",
                    )
                    continue
                if position not in feasible:
                    ontologies = [ontology for _, ontology in workflow.activities]
                    feasible[position] = _oracle_feasible(request_msg.qos, ontologies, registry)
                if feasible[position]:
                    note(
                        P_DENIAL_ORACLE,
                        rejection_index,
                        f"client {cid!r} was rejected although a feasible "
                        f"assignment exists",
                    )
    return Verdict.from_violations(violations)


# ---------------------------------------------------------------------------
# Pyramid

def check_pyramid(traces: Sequence[Trace]) -> PyramidVerdict:
    """Run all three layers and report whether the refinement chain holds.

    A lower layer passing while a higher one fails is itself reported: it
    witnesses that the trace set breaks one of the refinement implications.
    """
    behavior = check_behavior(traces)
    system = check_system(traces)
    service = check_service(traces)

    chain: list[Violation] = []
    if behavior.passed and not system.passed:
        chain.append(
            Violation(
                P_PYRAMID_CHAIN,
                0,
                None,
                "behavior holds but the system constraints fail",
            )
        )
    if system.passed and not service.passed:
        chain.append(
            Violation(
                P_PYRAMID_CHAIN,
                0,
                None,
                "system constraints hold but the service guarantee fails",
            )
        )
    combined = behavior.violations + system.violations + service.violations + tuple(chain)
    return PyramidVerdict(
        passed=behavior.passed and system.passed and service.passed,
        violations=combined,
        behavior=behavior,
        system=system,
        service=service,
    )
