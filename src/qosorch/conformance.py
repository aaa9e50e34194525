"""Three-layer trace conformance checking.

The layers refine each other:

* behavior  -- every snapshot is well-formed, every message belongs to the
               closed vocabulary, every pending message's addresses
               resolve, and every transition is reproducible by re-applying
               the rule engine;
* system    -- instances are created by R1 alone with field-exact
               snapshots, requests and activity sets stay constant, states
               move monotonically, denied instances stay unbound, bindings
               imply a grant, and every instance ends in a terminal state;
* service   -- every client received exactly one of acceptance (with the
               final bound services offered by the registry and aggregating
               within the requested budget) or rejection, and every
               rejection agrees with an independent selection oracle.

Every check is a fact of one transition, the initial configuration counting
as a change from the empty one, or of one final configuration, each read
with the initial configuration of its own trace.  So each fault is reported
once, where it first appears or at the end, each fact is computed once
however many traces share its object, and any list of traces is checked in
one pass.  A checker takes a trace set or a configuration graph from
``engine.explore_graph``, which stands for its maximal paths: the facts then
come from its edges and terminal nodes, and the paths are listed only to
place violations.  Checkers re-derive everything from the configurations
themselves; they never trust engine annotations.  The selection oracle here
is intentionally a separate implementation from the selector the engine
uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from . import engine as engine_mod
from .model import (
    ActivityState,
    ClientRecord,
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
    client_address,
    get_wsoi,
    instance_address,
    instance_state_can_follow,
    message_schema_error,
    resolvable_addresses,
    resolves,
    snapshot_error,
    state_text,
)
from .registry import Registry
from .selection import AllocationResult

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
# Facts

_EMPTY = Configuration(actors=())

# What the checkers take: a trace set, or a configuration graph standing for
# the set of its maximal paths.
Checked = Sequence[Trace] | engine_mod.ConfigurationGraph


def _transitions(trace: Trace):
    """The initial configuration at index None, then each (index, step)."""
    yield None, trace.initial
    yield from enumerate(trace.steps)


def _final(trace: Trace):
    yield None, trace.final


def _change(place):
    """(source, target, transition) of a transition, or of an initial
    configuration seen as a change from the empty one (transition None)."""
    if isinstance(place, Transition):
        return place.source, place.target, place
    return _EMPTY, place, None


def _distinct(checked: Checked, places) -> dict:
    """The distinct (initial, object) pairs, keyed by their ids, that places
    yields over the traces of a trace set, each object with the initial
    configuration of its trace, or over the paths of a graph: its initial
    configuration and edges, or its terminal nodes."""
    if isinstance(checked, engine_mod.ConfigurationGraph):
        edges = (edge for out in checked.edges.values() for edge in out)
        objects = checked.terminals if places is _final else (checked.initial, *edges)
        pairs = ((checked.initial, place) for place in objects)
    else:
        pairs = ((trace.initial, place) for trace in checked for _, place in places(trace))
    return {(id(initial), id(place)): (initial, place) for initial, place in pairs}


def _stamp(checked: Checked, *judges) -> Verdict:
    """The violations of each (places, fact) judge over a trace set or the
    paths of a graph.

    places(trace) yields (index, object) pairs and fact(initial, object),
    given the trace's initial configuration too, gives notes: (property,
    witness) at that index, or (property, witness, message) at the first
    transition of the trace that emits the message, if any.  A fact is
    computed once per distinct pair, keyed by ids, which no other object can
    take while the traces or the graph keep every one alive; the notes are
    stamped at each place, listing the paths of a graph, only when some
    fact has one.
    """
    memos = [
        {key: fact(*pair) for key, pair in _distinct(checked, places).items()}
        for places, fact in judges
    ]
    if not any(notes for memo in memos for notes in memo.values()):
        return Verdict.from_violations(())
    traces = checked.traces() if isinstance(checked, engine_mod.ConfigurationGraph) else checked

    def emitted_at(trace: Trace, message: Message) -> int | None:
        return next((i for i, t in enumerate(trace.steps) if message in t.emitted), None)

    return Verdict.from_violations(
        [
            Violation(property_id, trace_index, emitted_at(trace, *at) if at else index, witness)
            for trace_index, trace in enumerate(traces)
            for (places, _), memo in zip(judges, memos)
            for index, place in places(trace)
            for property_id, witness, *at in memo[id(trace.initial), id(place)]
        ]
    )


# ---------------------------------------------------------------------------
# Behavior layer

def _replay_selector(emitted: Sequence[Message]):
    """A selector that reproduces the decision recorded in a selection's
    emitted messages."""

    def selector(_request, _workflow, _registry) -> AllocationResult:
        if len(emitted) != 1 or emitted[0].kind not in (
            MessageKind.SELECT_REPLY_GRANTED,
            MessageKind.SELECT_REPLY_DENIED,
        ):
            raise ValueError("selection must emit exactly one reply")
        reply = emitted[0]
        if reply.kind is MessageKind.SELECT_REPLY_DENIED:
            return AllocationResult(granted=False)
        return AllocationResult(granted=True, per_activity=reply.assignment or ())

    return selector


def _may_lose(before, after) -> bool:
    """Whether replacing a snapshot can take away an address it resolved:
    only removing the actor, or an instance losing an activity or a bound
    service, can (see :func:`resolvable_addresses`)."""
    if after is None:
        return True
    if not isinstance(before, WsoInstance):
        return False
    if not isinstance(after, WsoInstance):
        return True
    if after.activities is before.activities:
        return False
    kept = {aa.aa_name: aa.ws.bound for aa in after.activities}
    return any(
        aa.aa_name not in kept or (aa.ws.bound and not kept[aa.aa_name])
        for aa in before.activities
    )


def _behavior_notes(_initial, place) -> list[tuple[str, str]]:
    """(property, witness) for the snapshots and messages a transition
    introduces, for the pending addresses it leaves unresolvable, and for a
    rule application the engine does not reproduce."""
    source, target, transition = _change(place)
    notes: list[tuple[str, str]] = []
    lost: set[str] = set()  # addresses resolvable in the source only
    for address, before, after in source.changes(target):
        if before is not None and _may_lose(before, after):
            kept = () if after is None else resolvable_addresses(address, after)
            lost.update(a for a in resolvable_addresses(address, before) if a not in kept)
        if after is None:
            continue
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
    new_messages = target.undelivered if transition is None else transition.emitted
    for message in new_messages:
        schema_error = message_schema_error(message)
        if schema_error is not None:
            notes.append((P_MESSAGE_VOCABULARY, schema_error))

    # A pending address first fails to resolve where its message arrives or
    # where a change takes away the addresses that resolved it.
    unresolvable = [
        (message, address)
        for message in new_messages
        if message in target.channel(message.sender, message.receiver)
        for address in (message.sender, message.receiver)
        if address not in lost and not resolves(target, address)
    ]
    if lost:
        unresolvable.extend(
            (m, a) for m in target.undelivered for a in (m.sender, m.receiver) if a in lost
        )
    for message, address in unresolvable:
        witness = f"{message.kind.value} references unresolvable address {address!r}"
        notes.append((P_MESSAGE_VOCABULARY, witness))
    if transition is not None:
        notes.extend(_replay_notes(transition))
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


def check_behavior(checked: Checked) -> Verdict:
    """Check traces against the transition rules by replaying every step.

    Each snapshot and message is checked where it first appears, and each
    pending address where it first fails to resolve.  The selection decision
    itself is taken as recorded (the selector is free to grant or deny at
    this layer); everything downstream of the decision must be reproducible.
    """
    return _stamp(checked, (_transitions, _behavior_notes))


# ---------------------------------------------------------------------------
# System layer

def _seeded_requests(config: Configuration) -> list[Message]:
    return [m for m in config.undelivered if m.kind is MessageKind.WSO_REQUEST]


def _creation_notes(initial: Configuration, transition: Transition) -> list[tuple[str, str]]:
    """(property, witness) for an R1 transition: it must consume a request
    seeded in the initial configuration that has no instance yet and create
    a field-exact one."""
    request_msg = transition.message
    cid = request_msg.client_id
    if request_msg not in _seeded_requests(initial):
        return [(P_UNIQUE_CREATION, f"request {cid!r} is not a seeded request")]
    if get_wsoi(transition.source, cid) is not None:
        return [(P_UNIQUE_CREATION, f"request {cid!r} already has an instance")]
    instance = get_wsoi(transition.target, cid)
    if instance is None:
        return [(P_CREATION_SNAPSHOT, "creation produced no instance")]
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
        problems.append(f"state is {state_text(instance.state)}, expected Waiting")
    if instance.output_parameters is not None:
        problems.append("outputs are set at creation")
    if not instance.activities:
        problems.append("instance has no activities")
    for aa in instance.activities:
        if aa.qos is not None or aa.input_parameters is not None or aa.output_parameters is not None:
            problems.append(f"activity {aa.aa_name!r} carries data at creation")
        if aa.state is not ActivityState.PREPARING:
            problems.append(
                f"activity {aa.aa_name!r} is {state_text(aa.state)}, expected Preparing"
            )
        if aa.ws.bound:
            problems.append(f"activity {aa.aa_name!r} is bound at creation")
        if aa.wsoi_id != request_msg.client_id:
            problems.append(f"activity {aa.aa_name!r} names owner {aa.wsoi_id!r}")
    return [(P_CREATION_SNAPSHOT, problem) for problem in problems]


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
            f"instance {cid!r} moved {state_text(prior.state)} -> {state_text(current.state)}",
        )
    current_states = {aa.aa_name: aa.state for aa in current.activities}
    for prior_aa in prior.activities:
        state = current_states.get(prior_aa.aa_name)
        if state is not None and not activity_state_can_follow(prior_aa.state, state):
            note(
                P_STATE_MONOTONICITY,
                f"activity {prior_aa.aa_name!r} of {cid!r} moved "
                f"{state_text(prior_aa.state)} -> {state_text(state)}",
            )


def _lifecycle_notes(initial: Configuration, place) -> list[tuple[str, str]]:
    """(property, witness) for what one transition does to the instances:
    creation on R1, succession where a prior instance is replaced, an
    instance that appears without being created, and the binding
    constraints on each new instance snapshot."""
    source, target, transition = _change(place)
    notes: list[tuple[str, str]] = []

    def note(property_id: str, witness: str) -> None:
        notes.append((property_id, witness))

    created = None
    if transition is not None and transition.rule is RuleId.R1_WSOIM_CREATE:
        notes.extend(_creation_notes(initial, transition))
        created = instance_address(transition.message.client_id)
    for address, prior, current in source.changes(target):
        if isinstance(prior, WsoInstance):
            _check_succession(prior, current, note)
        if not isinstance(current, WsoInstance):
            continue
        cid = current.client_id
        if not isinstance(prior, WsoInstance) and address != created:
            note(P_UNIQUE_CREATION, f"instance {cid!r} appeared without a creation")
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
                f"instance {cid!r} is {state_text(current.state)} with bindings {bound}",
            )
    return notes


def _progress_notes(initial: Configuration, final: Configuration) -> list[tuple[str, str]]:
    """(property, witness) for a seeded request that ends without an
    instance and for an instance that ends short of a terminal state."""
    notes: list[tuple[str, str]] = []
    for request_msg in _seeded_requests(initial):
        if get_wsoi(final, request_msg.client_id) is None:
            witness = f"request {request_msg.client_id!r} ended without an instance"
            notes.append((P_UNIQUE_CREATION, witness))
    for _, instance in final.instances():
        cid = instance.client_id
        if instance.state is InstanceState.WAITING:
            notes.append((P_WAITING_PROGRESS, f"instance {cid!r} never left Waiting"))
        elif instance.state in (InstanceState.GRANTED, InstanceState.SERVICING):
            witness = f"granted instance {cid!r} ended {instance.state.value}"
            notes.append((P_GRANTED_PROGRESS, witness))
    return notes


def check_system(checked: Checked) -> Verdict:
    """Check instance-lifecycle and binding-state constraints over a trace set.

    Every fact is one of a transition or of a final configuration, read
    with the initial configuration of its own trace, which seeds the
    requests; so any list of traces is checked in one pass.  Creation is a
    fact of the R1 transition, and an instance that appears anywhere else
    is a unique-creation fault at that transition.  Progress is read from
    the final instance state alone, which suffices: every instance snapshot
    is created Waiting or reported, and every change of state is checked
    against the successor relation, where Completed follows only Servicing
    and Servicing only Granted.  So an instance that ends Completed with no
    fault reported went through Granted and Servicing, and one that ends
    Granted or Servicing was granted and never completed.
    """
    return _stamp(checked, (_transitions, _lifecycle_notes), (_final, _progress_notes))


# ---------------------------------------------------------------------------
# Service layer

def _oracle_feasible(
    request_qos: QoSSpec, ontologies: Sequence[str], registry: Registry
) -> bool:
    """Independent feasibility check: is there one candidate per ontology
    within the time bound whose costs sum within the cost budget?

    A combination's response time is its slowest candidate's, so only
    candidates within the time bound can take part: each slot is cut to
    those first, and a slot the cut empties decides before anything is
    combined.  The total costs reachable by picking from the slots in turn
    then form a set, but a total is dominated by any smaller one, since
    whatever completes it within the budget completes the smaller too.  So
    the set is pruned to its least total after each slot, and the work is
    linear in the candidates."""
    bound = request_qos.response_time_ms
    slots = [
        {c.qos.cost_cents for c in registry.query(ontology) if c.qos.response_time_ms <= bound}
        for ontology in ontologies
    ]
    if not all(slots):
        return False
    least = 0
    for costs in slots:
        least = min(least + cost for cost in costs)
    return least <= request_qos.cost_cents


_CLIENT_REPLIES = (MessageKind.GRANTED_REPLY, MessageKind.COMPLETED_REPLY, MessageKind.DENIED_REPLY)


def _service_notes(initial: Configuration, final: Configuration, feasible: dict) -> list:
    """Notes for the seeded requests in one final configuration, judged from
    the replies each client received; a note about the completion or the
    rejection names that reply.  feasible memoizes the oracle per initial
    configuration and seeded position."""
    manager = initial.actor(WSOIM_ADDRESS)
    selector_state = initial.actor(SS_ADDRESS)
    workflow = manager.workflow if isinstance(manager, ManagerState) else None
    registry = selector_state.registry if isinstance(selector_state, SelectorState) else None
    notes: list[tuple] = []

    def note(property_id: str, witness: str, reply: Message | None = None) -> None:
        notes.append((property_id, witness) if reply is None else (property_id, witness, reply))

    for position, request_msg in enumerate(_seeded_requests(initial)):
        cid = request_msg.client_id
        record = final.actor(client_address(cid))
        received = record.received if isinstance(record, ClientRecord) else ()
        replies = [m for m in received if m.kind in _CLIENT_REPLIES and m.client_id == cid]
        granted, completed, denied = ([m.kind for m in replies].count(k) for k in _CLIENT_REPLIES)
        if (granted, completed, denied) not in ((1, 1, 0), (0, 0, 1)):
            note(
                P_REPLY_DICHOTOMY,
                f"client {cid!r} saw granted={granted} completed={completed} "
                f"denied={denied}; expected one acceptance xor one rejection",
            )
            continue
        # The completion of an acceptance, or the denial of a rejection.
        reply = next(m for m in replies if m.kind is not MessageKind.GRANTED_REPLY)
        if denied:
            if workflow is None or registry is None:
                note(P_DENIAL_ORACLE, "missing manager or selector state", reply)
            elif request_msg.qos is None:
                note(P_DENIAL_ORACLE, f"request of client {cid!r} carries no QoS budget", reply)
            else:
                key = id(initial), position
                if key not in feasible:
                    ontologies = [ontology for _, ontology in workflow.activities]
                    feasible[key] = _oracle_feasible(request_msg.qos, ontologies, registry)
                if feasible[key]:
                    witness = f"client {cid!r} was rejected although a feasible assignment exists"
                    note(P_DENIAL_ORACLE, witness, reply)
            continue
        instance = get_wsoi(final, cid)
        if instance is None:
            note(P_GRANT_FEASIBILITY, f"no final instance for {cid!r}")
            continue
        if not instance.activities:
            note(P_GRANT_FEASIBILITY, f"accepted instance {cid!r} has no activities")
            continue
        bound = [aa.ws.advertised_qos for aa in instance.activities if aa.ws.bound]
        if len(bound) != len(instance.activities):
            note(P_GRANT_FEASIBILITY, f"accepted instance {cid!r} has unbound activities")
            continue
        worst = max(q.response_time_ms for q in bound)
        total = sum(q.cost_cents for q in bound)
        budget = request_msg.qos
        if budget is None:
            note(P_GRANT_FEASIBILITY, f"request of client {cid!r} carries no QoS budget", reply)
        elif worst > budget.response_time_ms or total > budget.cost_cents:
            note(
                P_GRANT_FEASIBILITY,
                f"client {cid!r} accepted with aggregate ({worst}ms,{total}c) "
                f"over budget ({budget.response_time_ms}ms,{budget.cost_cents}c)",
                reply,
            )
        if workflow is None or registry is None:
            note(P_GRANT_FEASIBILITY, "missing manager or selector state", reply)
            continue
        ontology_of = dict(workflow.activities)
        for aa in instance.activities:
            offered = [(c.candidate_id, c.qos) for c in registry.query(ontology_of.get(aa.aa_name))]
            if (aa.ws.endpoint, aa.ws.advertised_qos) not in offered:
                note(
                    P_GRANT_FEASIBILITY,
                    f"client {cid!r} bound {aa.aa_name!r} to {aa.ws.endpoint!r}, "
                    f"which the registry does not offer at that QoS for that activity",
                    reply,
                )
    return notes


def check_service(checked: Checked) -> Verdict:
    """Check the acceptance/rejection dichotomy and its QoS obligations.

    Every seeded client must, in every final configuration, have received
    either an acceptance (a granted and a completed reply, with every final
    bound service a candidate the registry offers for its activity at the
    bound QoS, aggregating within the requested budget) or a rejection (one
    denied reply, re-verified against the selection oracle), and nothing
    else.  The checks are a fact of each distinct final configuration, read
    with the initial configuration of its trace, and a note about the
    completion or the rejection is stamped at the transition that emitted
    that reply.  The oracle runs at most once per seeded request of each
    initial configuration.
    """
    feasible: dict[tuple[int, int], bool] = {}  # (id(initial), seeded position) -> verdict
    return _stamp(checked, (_final, partial(_service_notes, feasible=feasible)))


# ---------------------------------------------------------------------------
# Pyramid

def check_pyramid(checked: Checked) -> PyramidVerdict:
    """Run all three layers and report whether the refinement chain holds.

    A lower layer passing while a higher one fails is itself reported: it
    witnesses that the trace set breaks one of the refinement implications.
    """
    behavior = check_behavior(checked)
    system = check_system(checked)
    service = check_service(checked)

    # A chain violation names the trace of the first violation of the layer
    # that fails, a trace that shows the break.
    chain: list[Violation] = []
    if behavior.passed and not system.passed:
        chain.append(
            Violation(
                P_PYRAMID_CHAIN,
                system.violations[0].trace_index,
                None,
                "behavior holds but the system constraints fail",
            )
        )
    if system.passed and not service.passed:
        chain.append(
            Violation(
                P_PYRAMID_CHAIN,
                service.violations[0].trace_index,
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
