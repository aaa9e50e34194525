"""Three-layer trace conformance checking.

The layers refine each other:

* behavior  -- every snapshot is well-formed, every message belongs to the
               closed vocabulary, every pending message's addresses
               resolve, and every transition is in the rule relation: it
               consumes the head of a channel under the one rule R1-R8
               whose condition holds, changes only the actor that rule may
               change, as the rule changes it, and emits exactly the
               messages the rule emits;
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
themselves; they never trust engine annotations and never run the engine.
The rule relation here states the rules apart from the engine's rule table,
each effect as the plain snapshot and messages the rule leaves, and the
selection oracle is a separate implementation from the selector the engine
uses.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

from .engine import ConfigurationGraph
from .model import (
    ActivityState,
    CHANNEL_KEY,
    ClientRecord,
    Configuration,
    InstanceState,
    ManagerState,
    Message,
    MessageKind,
    QoSSpec,
    Role,
    RuleId,
    SS_ADDRESS,
    SelectorState,
    Trace,
    Transition,
    WSOIM_ADDRESS,
    WsoInstance,
    WsoRequest,
    activity_address,
    activity_state_can_follow,
    channel_owner,
    client_address,
    get_aa,
    get_wsoi,
    instance_address,
    instance_state_can_follow,
    message_schema_error,
    parse_address,
    receiver_role,
    resolves,
    service_address,
    sha256,
    snapshot_error,
    state_text,
)
from .registry import Registry
from .selection import map_input_parameters, map_output_parameters

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
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


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
Checked = Sequence[Trace] | ConfigurationGraph


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
    if isinstance(checked, ConfigurationGraph):
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
        return Verdict(())
    traces = checked.traces() if isinstance(checked, ConfigurationGraph) else checked

    def emitted_at(trace: Trace, message: Message) -> int | None:
        return next((i for i, t in enumerate(trace.steps) if message in t.emitted), None)

    return Verdict(
        tuple(
            Violation(property_id, trace_index, emitted_at(trace, *at) if at else index, witness)
            for trace_index, trace in enumerate(traces)
            for (places, _), memo in zip(judges, memos)
            for index, place in places(trace)
            for property_id, witness, *at in memo[id(trace.initial), id(place)]
        )
    )


# ---------------------------------------------------------------------------
# Behavior layer

def _behavior_notes(_initial, place) -> list[tuple[str, str]]:
    """(property, witness) for the snapshots and messages a transition
    introduces, for the pending addresses it leaves unresolvable, and for a
    transition the rule relation does not hold of; the snapshots and the
    lost addresses only where the relation rejects (see check_behavior)."""
    source, target, transition = _change(place)
    notes: list[tuple[str, str]] = []
    changes = source.changes(target)
    relation = [] if transition is None else _relation_notes(transition, changes)
    lost: set[str] = set()  # pending addresses that resolve in the source only
    if transition is None or relation:
        lost = {
            a
            for m in target.undelivered
            for a in (m.sender, m.receiver)
            if resolves(source, a) and not resolves(target, a)
        }
        for address, _, after in changes:
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
                    witness = f"activity {aa.aa_name!r} has state {aa.state!r}"
                    notes.append((P_STATE_DOMAIN, witness))
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
    notes.extend(relation)
    return notes


# The rule relation: each rule R1-R8 as one row, from the rules as the table
# in README.md states them: the rule, its whole condition and its effect.
# The condition reads the state of the receiver that the vocabulary
# addresses its kind to, and anything else the rule reads.  The effect is
# what the rule leaves: the new snapshot of the one actor it may change, the
# client's instance (None: unchanged), and the messages it must emit, as
# plain snapshots and messages that the transition's must equal.  Both take
# the transition, the client's instance and the activity that an activity
# or service receiver names (else None).  The first row of a kind whose
# condition holds is the rule; only notify has two rows.

def _reply(kind: MessageKind, instance: WsoInstance, **payload) -> Message:
    """A reply to the instance's client, restating the request's ontology and QoS."""
    cid, request = instance.client_id, instance.request
    return Message(
        kind, instance_address(cid), client_address(cid), cid,
        ontology=request.ontology, qos=request.qos, **payload,
    )


def _in(*states) -> Callable[..., bool]:
    """The receiver, the named activity or else the instance, is in one of states."""
    return lambda t, instance, aa: getattr(instance if aa is None else aa, "state", None) in states


def _creates(t, instance, aa) -> bool:
    """R1: the manager's workflow has the requested ontology, and the client
    has no instance yet."""
    manager = t.source.actor(WSOIM_ADDRESS)
    return (
        instance is None
        and isinstance(manager, ManagerState)
        and manager.workflow.ontology == t.message.ontology
    )


def _r1(t, instance, aa):
    """A Waiting instance of the request with one initial activity per
    workflow activity; a selection request with the request's ontology and QoS."""
    m, cid = t.message, t.message.client_id
    request = WsoRequest(cid, m.ontology, m.params or (), m.qos)
    created = WsoInstance.create(request, t.source.actor(WSOIM_ADDRESS).workflow.activity_names())
    select = Message(
        MessageKind.SELECT, instance_address(cid), SS_ADDRESS, cid, ontology=m.ontology, qos=m.qos
    )
    return created, (select,)


def _selects(t, instance, aa) -> bool:
    """R5: the selector, with its registry, serves a client that has an instance."""
    return instance is not None and isinstance(t.source.actor(SS_ADDRESS), SelectorState)


def _r5(t, instance, aa):
    """No change; one reply to the instance with the selector's decision as
    recorded: a grant with its bindings, or else a denial."""
    cid, emitted = t.message.client_id, t.emitted
    if len(emitted) == 1 and emitted[0].kind is MessageKind.SELECT_REPLY_GRANTED:
        kind, payload = emitted[0].kind, {"assignment": emitted[0].assignment}
    else:
        kind, payload = MessageKind.SELECT_REPLY_DENIED, {}
    return None, (Message(kind, SS_ADDRESS, instance_address(cid), cid, **payload),)


def _r2a(t, instance, aa):
    """Denied; the denied reply."""
    denied = replace(instance, state=InstanceState.DENIED)
    return denied, (_reply(MessageKind.DENIED_REPLY, instance),)


def _covers(t, instance, aa) -> bool:
    """R2b: the grant binds each activity of the waiting instance once."""
    names = sorted(binding.aa_name for binding in t.message.assignment or ())
    return (
        getattr(instance, "state", None) is InstanceState.WAITING
        and names == sorted(instance.activity_names())
    )


def _r2b(t, instance, aa):
    """Granted, each activity bound to its binding's candidate at its QoS
    and given the inputs routed to it from the request; the granted reply,
    then an invocation of each activity in order."""
    cid, bound = t.message.client_id, {b.aa_name: b for b in t.message.assignment}
    inputs = map_input_parameters(instance.request.input_parameters, instance.activity_names())
    activities = tuple(
        replace(
            a,
            qos=b.qos,
            input_parameters=inputs[a.aa_name],
            ws=replace(a.ws, endpoint=b.candidate_id, advertised_qos=b.qos),
        )
        for a in instance.activities
        for b in (bound[a.aa_name],)
    )
    invokes = (
        Message(MessageKind.INVOKE, instance_address(cid), activity_address(cid, a.aa_name), cid)
        for a in instance.activities
    )
    granted = replace(instance, state=InstanceState.GRANTED, activities=activities)
    return granted, (_reply(MessageKind.GRANTED_REPLY, instance), *invokes)


def _r3(t, instance, aa):
    """Servicing; nothing emitted."""
    return replace(instance, state=InstanceState.SERVICING), ()


def _completes(t, instance, aa) -> bool:
    """R4a: every activity of the servicing instance has returned its
    outputs, and no other notification for the instance is pending."""
    return (
        getattr(instance, "state", None) is InstanceState.SERVICING
        and all(
            a.state is ActivityState.RETURNED and a.output_parameters is not None
            for a in instance.activities
        )
        and not any(
            m.kind is MessageKind.NOTIFY and m != t.message
            for m in t.source.pending_to(t.message.receiver)
        )
    )


def _r4a(t, instance, aa):
    """Completed with the activities' outputs, each key prefixed with its
    activity's name; the completed reply carrying them."""
    outputs = map_output_parameters({a.aa_name: a.output_parameters for a in instance.activities})
    completed = replace(instance, state=InstanceState.COMPLETED, output_parameters=outputs)
    return completed, (_reply(MessageKind.COMPLETED_REPLY, instance, params=outputs),)


def _invokable(t, instance, aa) -> bool:
    """R6: the activity is Preparing and has its inputs."""
    return getattr(aa, "state", None) is ActivityState.PREPARING and aa.input_parameters is not None


def _r6(t, instance, aa):
    """The activity is Invoking; an acknowledgement to the instance, then a
    call of its service with its inputs."""
    cid, name = t.message.client_id, aa.aa_name
    here = activity_address(cid, name)
    ack = Message(MessageKind.INVOKE_ACK, here, instance_address(cid), cid)
    call = Message(
        MessageKind.INVOKE_WS, here, service_address(cid, name), cid, params=aa.input_parameters
    )
    return instance.with_activity(replace(aa, state=ActivityState.INVOKING)), (ack, call)


def _r7(t, instance, aa):
    """The activity has Returned the service's result as its outputs; a
    notification to the instance."""
    cid, name = t.message.client_id, aa.aa_name
    returned = instance.with_activity(
        replace(aa, state=ActivityState.RETURNED, output_parameters=t.message.params)
    )
    notify = Message(
        MessageKind.NOTIFY, activity_address(cid, name), instance_address(cid), cid,
        aa_name=name, aa_state=ActivityState.RETURNED,
    )
    return returned, (notify,)


_SORTED_JSON = json.JSONEncoder(sort_keys=True).encode


def _r8(t, instance, aa):
    """No change; the stub service's reply: its endpoint, ':' and the first
    12 hex digits of the SHA-256 of its inputs as a JSON object, keys sorted."""
    cid, name = t.message.client_id, aa.aa_name
    text = _SORTED_JSON(dict(t.message.params or ()))
    result = f"{aa.ws.endpoint}:{sha256(text.encode('utf-8')).hexdigest()[:12]}"
    reply = Message(
        MessageKind.INVOKE_REPLY, service_address(cid, name), activity_address(cid, name), cid,
        params=(("result", result),),
    )
    return None, (reply,)


_RELATION: dict[MessageKind, tuple[tuple[RuleId, Callable, Callable], ...]] = {
    MessageKind.WSO_REQUEST: ((RuleId.R1_WSOIM_CREATE, _creates, _r1),),
    MessageKind.SELECT: ((RuleId.R5_SS_SELECT, _selects, _r5),),
    MessageKind.SELECT_REPLY_DENIED: (
        (RuleId.R2A_SELECT_DENIED, _in(InstanceState.WAITING), _r2a),
    ),
    MessageKind.SELECT_REPLY_GRANTED: ((RuleId.R2B_SELECT_GRANTED, _covers, _r2b),),
    MessageKind.INVOKE_ACK: (
        (RuleId.R3_INVOKE_ACK, _in(InstanceState.GRANTED, InstanceState.SERVICING), _r3),
    ),
    MessageKind.NOTIFY: (
        (RuleId.R4A_NOTIFY_ALL_RETURNED, _completes, _r4a),
        (RuleId.R4B_NOTIFY_SOME_PENDING, _in(InstanceState.SERVICING), lambda *_: (None, ())),
    ),
    MessageKind.INVOKE: ((RuleId.R6_AA_INVOKE, _invokable, _r6),),
    MessageKind.INVOKE_REPLY: ((RuleId.R7_AA_RETURN, _in(ActivityState.INVOKING), _r7),),
    MessageKind.INVOKE_WS: (
        (RuleId.R8_WS_INVOKE, lambda t, instance, aa: aa is not None and aa.ws.bound, _r8),
    ),
}

def _relation_notes(t: Transition, changes: list) -> list[tuple[str, str]]:
    """(property, witness) for a transition outside the rule relation, given
    its changes of actors: its message is not the head of its channel, or
    its rule is not the first row of the message's kind that fires, or it
    does not do what that row does.  The row's effect and the client-bound
    replies the transition emits must be the only changes, the emitted
    messages must be the row's, and the target pool must be the source pool
    less the consumed message plus the other emitted messages: the pools of
    the owners of those channels are rebuilt, and every other owner's must
    be the source's."""
    source, message = t.source, t.message
    pools: dict[str | None, list[Message]] = {}  # owner -> its pool in the target

    def pool_of(m: Message) -> list[Message]:
        owner = channel_owner(m.sender, m.receiver)
        if owner not in pools:
            pools[owner] = list(source.pool(owner))
        return pools[owner]

    pool = pool_of(message)
    head = bisect_left(pool, CHANNEL_KEY(message), key=CHANNEL_KEY)
    if head == len(pool) or (pool[head] is not message and pool[head] != message):
        if message in source.channel(message.sender, message.receiver):
            return [(P_DELIVERY_ORDER, "consumed message overtook an older one on its channel")]
        return [(P_RULE_REPLAY, "consumed message was not pending")]
    del pool[head]
    role, _, aa_name = parse_address(message.receiver)
    instance = get_wsoi(source, message.client_id)
    aa = None
    if instance is not None and role in (Role.ACTIVITY, Role.SERVICE):
        aa = get_aa(instance, aa_name)
    rows = _RELATION.get(message.kind, ()) if role is receiver_role(message.kind) else ()
    for rule, fires, effect in rows:
        if fires(t, instance, aa):
            break
    else:
        state = state_text(getattr(instance if aa is None else aa, "state", None))
        witness = f"no rule consumes {message.kind.value} at {message.receiver!r} (state {state})"
        return [(P_RULE_REPLAY, witness)]
    notes = []
    if rule is not t.rule:
        witness = f"recorded rule {state_text(t.rule)}, the rules fire {rule.value}"
        notes.append((P_RULE_REPLAY, witness))
    try:
        updated, expected = effect(t, instance, aa)
    except ValueError as exc:  # a snapshot its type refuses, say a client id with ':'
        return [*notes, (P_RULE_REPLAY, f"{rule.value} cannot apply: {exc}")]
    if t.emitted != expected:
        notes.append((P_RULE_REPLAY, f"emitted messages differ from those {rule.value} emits"))

    changed = {} if updated is None else {instance_address(message.client_id): updated}
    for out in t.emitted:
        if parse_address(out.receiver).role is not Role.CLIENT:
            pool = pool_of(out)
            pool.insert(bisect_right(pool, CHANNEL_KEY(out), key=CHANNEL_KEY), out)
            continue
        record = changed.get(out.receiver) or source.actor(out.receiver)
        if isinstance(record, ClientRecord):
            changed[out.receiver] = record.with_received(out)
        else:
            notes.append((P_RULE_REPLAY, f"no client record at {out.receiver!r}"))
    for address, _, after in changes:
        if address not in changed:
            notes.append((P_RULE_REPLAY, f"{rule.value} may not change {address!r}"))
        elif changed.pop(address) != after:
            notes.append((P_RULE_REPLAY, f"{address!r} is not the snapshot {rule.value} leaves"))
    for address, snapshot in changed.items():  # the target kept the source's snapshot
        if snapshot != source.actor(address):
            notes.append((P_RULE_REPLAY, f"{address!r} is not the snapshot {rule.value} leaves"))
    if not t.target.same_pools(source, but=pools) or any(
        t.target.pool(owner) != tuple(pool) for owner, pool in pools.items()
    ):
        witness = "target pool is not the source pool less the consumed plus the emitted messages"
        notes.append((P_RULE_REPLAY, witness))
    return notes


def check_behavior(checked: Checked) -> Verdict:
    """Check traces against the rule relation, one transition at a time.

    Each message is checked where it first appears, and each pending
    address where it first fails to resolve.  Each transition is judged by
    the row of the relation whose condition holds, read off its source, its
    target and its emitted messages; nothing is executed again.  The
    selection decision itself is taken as recorded (R5 must emit one
    reply, but the selector is free to grant or deny at this layer);
    everything downstream of the decision must follow the rules.

    Snapshots, and addresses that a change takes away, are checked only in
    the initial configuration and at transitions the relation rejects.  An
    accepted transition changes only what its row changes: the client's
    instance, built from the source's with enum states and with every
    activity and binding kept (R2b adds bindings, R1 creates the instance
    anew), and the client records the source holds.  So its snapshots are as
    well-formed as the source's, every address that resolved still does, and
    a fault it inherits was reported where it first appeared.  Its emitted
    messages are still checked, since the relation does not vouch for all
    of them: R5's reply carries the recorded decision, R1's select goes to
    the selector whether or not one exists, and R6 calls a service whose
    binding it never reads.
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
    seeded = initial.channel(request_msg.sender, request_msg.receiver)
    if request_msg.kind is not MessageKind.WSO_REQUEST or request_msg not in seeded:
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
        violations=combined,
        behavior=behavior,
        system=system,
        service=service,
    )
