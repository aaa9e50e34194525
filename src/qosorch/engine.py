"""Transition rules, seeded execution, and exhaustive interleaving exploration.

Each transition consumes exactly one undelivered message under exactly one
rule.  Delivery is asynchronous with one causal constraint: messages between
the same (sender, receiver) pair are delivered in emission order, which is
what keeps late acknowledgements from outliving a completed instance.
Replies addressed to a client are delivered synchronously into the client's
record, so terminal configurations always drain the message pool.

The manager and selector are stateless service actors; their constant
snapshots carry the workflow definition and the registry, which makes every
configuration self-contained for replay.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .model import (
    ActivityState,
    ClientRecord,
    Configuration,
    InstanceState,
    ManagerState,
    Message,
    MessageKind,
    Params,
    Role,
    RuleId,
    SelectorState,
    SS_ADDRESS,
    Trace,
    Transition,
    WSOIM_ADDRESS,
    WorkflowDef,
    WsoInstance,
    WsoRequest,
    build_message,
    client_address,
    get_aa,
    get_wsoi,
    instance_address,
    message_schema_error,
    parse_address,
    receiver_role,
    sha256,
    state_text,
)
from .registry import Registry
from .selection import AllocationResult, map_input_parameters, map_output_parameters, qos_allocate

DEFAULT_MAX_TRACES = 100_000

# How the selector resolves one selection request.  Injected so that replay
# can reproduce a recorded decision and tests can install faulty selectors.
# A selector must be pure: explore steps each distinct configuration once and
# so calls the selector once per distinct selection, sharing its answer among
# every path that reaches that selection.
Selector = Callable[[WsoRequest, WorkflowDef, Registry], AllocationResult]


class EngineError(Exception):
    """Base class for rule-engine failures."""


class MessageNotPendingError(EngineError):
    """The message to consume is not in the configuration's pool."""


class NotDeliverableError(EngineError):
    """An older message for the same sender/receiver pair is still pending."""


class NoRuleError(EngineError):
    """No transition rule matches the message/state pair."""


class StateSpaceLimitError(EngineError):
    """Exploration exceeded its transition or trace budget."""


def default_selector(request: WsoRequest, workflow: WorkflowDef, registry: Registry) -> AllocationResult:
    return qos_allocate(request.qos, workflow.activities, registry)


# ---------------------------------------------------------------------------
# Rule appliers
#
# An applier fires its rule, once :func:`_match` has found that it fires, on
# the consumed message, the client's instance and the activity the receiver
# address names (None where there is none).  It refuses nothing: it returns the
# instance's new snapshot (None: unchanged) and the messages the rule emits.
# It changes only the fields its rule changes and keeps every other field of
# the source, whatever that holds.

def _ws_output_digest(inputs: Params | None) -> str:
    payload = json.dumps(dict(inputs or ()), sort_keys=True)
    return sha256(payload.encode("utf-8")).hexdigest()[:12]


def _manager_workflow(config: Configuration) -> WorkflowDef:
    snapshot = config.actor(WSOIM_ADDRESS)
    if not isinstance(snapshot, ManagerState):
        raise EngineError("configuration is missing the instance manager")
    return snapshot.workflow


def _selector_registry(config: Configuration) -> Registry:
    snapshot = config.actor(SS_ADDRESS)
    if not isinstance(snapshot, SelectorState):
        raise EngineError("configuration is missing the service selector")
    return snapshot.registry


def _apply_r1(config, message, instance, aa, selector):
    request = WsoRequest(
        client_id=message.client_id,
        ontology=message.ontology,
        input_parameters=message.params or (),
        qos=message.qos,
    )
    created = WsoInstance.create(request, _manager_workflow(config).activity_names())
    select = build_message(
        MessageKind.SELECT, request.client_id, ontology=request.ontology, qos=request.qos
    )
    return created, [select]


def _apply_r5(config, message, instance, aa, selector):
    result = selector(instance.request, _manager_workflow(config), _selector_registry(config))
    if result.granted:
        reply = build_message(
            MessageKind.SELECT_REPLY_GRANTED, message.client_id, assignment=result.per_activity
        )
    else:
        reply = build_message(MessageKind.SELECT_REPLY_DENIED, message.client_id)
    return None, [reply]


def _client_reply(kind: MessageKind, instance: WsoInstance, **payload) -> Message:
    """The reply an instance sends its client, which restates the request's
    ontology and QoS."""
    request = instance.request
    return build_message(
        kind, request.client_id, ontology=request.ontology, qos=request.qos, **payload
    )


def _apply_r2a(config, message, instance, aa, selector):
    denied = replace(instance, state=InstanceState.DENIED)
    reply = _client_reply(MessageKind.DENIED_REPLY, instance)
    return denied, [reply]


def _apply_r2b(config, message, instance, aa, selector):
    allocated = {binding.aa_name: binding for binding in message.assignment}
    inputs = map_input_parameters(
        instance.request.input_parameters, instance.activity_names()
    )
    activities = tuple(
        replace(
            aa,
            qos=binding.qos,
            input_parameters=inputs[aa.aa_name],
            ws=replace(aa.ws, endpoint=binding.candidate_id, advertised_qos=binding.qos),
        )
        for aa in instance.activities
        for binding in (allocated[aa.aa_name],)
    )
    granted = replace(instance, state=InstanceState.GRANTED, activities=activities)
    cid = message.client_id
    emitted = [_client_reply(MessageKind.GRANTED_REPLY, instance)]
    emitted.extend(build_message(MessageKind.INVOKE, cid, aa.aa_name) for aa in granted.activities)
    return granted, emitted


def _apply_r3(config, message, instance, aa, selector):
    if instance.state is InstanceState.SERVICING:
        return None, []
    return replace(instance, state=InstanceState.SERVICING), []


def _apply_r4a(config, message, instance, aa, selector):
    outputs = map_output_parameters(
        {aa.aa_name: aa.output_parameters for aa in instance.activities}
    )
    completed = replace(instance, state=InstanceState.COMPLETED, output_parameters=outputs)
    reply = _client_reply(MessageKind.COMPLETED_REPLY, instance, params=outputs)
    return completed, [reply]


def _apply_r4b(config, message, instance, aa, selector):
    return None, []


def _apply_r6(config, message, instance, aa, selector):
    invoking = replace(aa, state=ActivityState.INVOKING)
    cid = message.client_id
    ack = build_message(MessageKind.INVOKE_ACK, cid, aa.aa_name)
    invoke_ws = build_message(MessageKind.INVOKE_WS, cid, aa.aa_name, params=aa.input_parameters)
    return instance.with_activity(invoking), [ack, invoke_ws]


def _apply_r7(config, message, instance, aa, selector):
    returned = replace(aa, output_parameters=message.params, state=ActivityState.RETURNED)
    cid = message.client_id
    notify = build_message(
        MessageKind.NOTIFY, cid, aa.aa_name, aa_name=aa.aa_name, aa_state=ActivityState.RETURNED
    )
    return instance.with_activity(returned), [notify]


def _apply_r8(config, message, instance, aa, selector):
    outputs = (("result", f"{aa.ws.endpoint}:{_ws_output_digest(message.params)}"),)
    reply = build_message(MessageKind.INVOKE_REPLY, message.client_id, aa.aa_name, params=outputs)
    return None, [reply]


# ---------------------------------------------------------------------------
# Rules
#
# The vocabulary fixes each kind's receiver role (:func:`receiver_role`).  A
# kind's rows name the rules it may fire, each with its applier and its whole
# condition ``fires(config, message, instance, activity)``; the first row that
# fires is the rule.  An invokeWs fires while its activity is bound; notify
# fires R4a when it completes the instance, else R4b.  Client-bound replies
# have no rows; :func:`step` delivers them synchronously.

def _in(*states) -> Callable[..., bool]:
    """Fires while the receiver is in one of states: the instance for
    instance states, the activity for activity states."""
    return lambda config, message, instance, aa: (
        getattr(instance, "state", None) in states or getattr(aa, "state", None) in states
    )


def _creates(config, message, instance, aa) -> bool:
    """R1: a request for the manager's ontology from a client with no instance."""
    return message.ontology == _manager_workflow(config).ontology and instance is None


def _selects(config, message, instance, aa) -> bool:
    """R5: a client with an instance, in a configuration with the manager
    and the selector, whose workflow and registry the selection reads."""
    _manager_workflow(config)
    _selector_registry(config)
    return isinstance(getattr(instance, "state", None), InstanceState)


def _covers(config, message, instance, aa) -> bool:
    """R2b: the waiting instance is granted one binding per activity."""
    names = [binding.aa_name for binding in message.assignment]
    return (
        getattr(instance, "state", None) is InstanceState.WAITING
        and len(names) == len(set(names))
        and set(names) == set(instance.activity_names())
    )


def _completes(config, message, instance, aa) -> bool:
    """R4a: every activity of the servicing instance has returned its
    outputs, and no other notification for the instance is pending."""
    return (
        getattr(instance, "state", None) is InstanceState.SERVICING
        and all(
            a.state is ActivityState.RETURNED and a.output_parameters is not None
            for a in instance.activities
        )
        and not any(
            m.kind is MessageKind.NOTIFY and m != message
            for m in config.pending_to(instance_address(message.client_id))
        )
    )


def _invokable(config, message, instance, aa) -> bool:
    """R6: the activity is Preparing and has the inputs to call its service with."""
    return getattr(aa, "state", None) is ActivityState.PREPARING and aa.input_parameters is not None


def _bound(config, message, instance, aa) -> bool:
    return isinstance(getattr(aa, "state", None), ActivityState) and aa.ws.bound


_RULES: dict[MessageKind, tuple[tuple[RuleId, Callable, Callable[..., bool]], ...]] = {
    MessageKind.WSO_REQUEST: ((RuleId.R1_WSOIM_CREATE, _apply_r1, _creates),),
    MessageKind.SELECT: ((RuleId.R5_SS_SELECT, _apply_r5, _selects),),
    MessageKind.SELECT_REPLY_DENIED: (
        (RuleId.R2A_SELECT_DENIED, _apply_r2a, _in(InstanceState.WAITING)),
    ),
    MessageKind.SELECT_REPLY_GRANTED: ((RuleId.R2B_SELECT_GRANTED, _apply_r2b, _covers),),
    MessageKind.INVOKE_ACK: (
        (RuleId.R3_INVOKE_ACK, _apply_r3, _in(InstanceState.GRANTED, InstanceState.SERVICING)),
    ),
    MessageKind.NOTIFY: (
        (RuleId.R4A_NOTIFY_ALL_RETURNED, _apply_r4a, _completes),
        (RuleId.R4B_NOTIFY_SOME_PENDING, _apply_r4b, _in(InstanceState.SERVICING)),
    ),
    MessageKind.INVOKE: ((RuleId.R6_AA_INVOKE, _apply_r6, _invokable),),
    MessageKind.INVOKE_REPLY: ((RuleId.R7_AA_RETURN, _apply_r7, _in(ActivityState.INVOKING)),),
    MessageKind.INVOKE_WS: ((RuleId.R8_WS_INVOKE, _apply_r8, _bound),),
}


def _match(config: Configuration, message: Message):
    """The rule that consumes this message in this configuration, its
    applier, the client's instance and the activity the receiver names."""
    role, _, aa_name = parse_address(message.receiver)
    instance = get_wsoi(config, message.client_id)
    activity = None if instance is None else get_aa(instance, aa_name)
    if role is receiver_role(message.kind):
        for rule, apply, fires in _RULES.get(message.kind, ()):
            if fires(config, message, instance, activity):
                return rule, apply, instance, activity
    state = getattr(instance if role is Role.INSTANCE else activity, "state", None)
    raise NoRuleError(
        f"no rule consumes {message.kind.value} at {message.receiver!r} (state {state_text(state)})"
    )


def rule_for(config: Configuration, message: Message) -> RuleId:
    """The one rule that consumes this message in this configuration."""
    return _match(config, message)[0]


def enabled(config: Configuration) -> list[tuple[Message, RuleId]]:
    """Every deliverable message paired with the rule that :func:`step` fires
    on it, in deterministic order.  A head that no rule consumes raises
    NoRuleError, as it would in :func:`step`."""
    return [(message, rule_for(config, message)) for message in config.heads]


def _check_deliverable(config: Configuration, message: Message) -> None:
    """The message must be pending and the oldest on its (sender, receiver)
    channel."""
    pending = config.channel(message.sender, message.receiver)
    if pending and (pending[0] is message or pending[0] == message):
        return
    if message in pending:
        raise NotDeliverableError(
            f"an older message on channel {message.sender!r}->{message.receiver!r} is pending"
        )
    raise MessageNotPendingError(f"{message.kind.value} is not in the undelivered pool")


def step(config: Configuration, message: Message, *, selector: Selector | None = None) -> Transition:
    """Consume one message under the one rule its kind fires.

    Returns the transition to the new configuration.  Client-bound replies in
    the rule's emissions are delivered synchronously into the client record;
    everything else joins its channel in emission order.
    """
    if selector is None:
        selector = default_selector
    _check_deliverable(config, message)
    rule, apply, instance, activity = _match(config, message)
    updated, emitted = apply(config, message, instance, activity, selector)
    changed = {} if updated is None else {instance_address(message.client_id): updated}

    for out in emitted:
        schema_error = message_schema_error(out)
        if schema_error is not None:
            raise EngineError(f"rule {rule.value} emitted a bad message: {schema_error}")
        if parse_address(out.receiver).role is Role.CLIENT:
            record = changed.get(out.receiver) or config.actor(out.receiver)
            if not isinstance(record, ClientRecord):
                raise EngineError(f"no client record at {out.receiver!r}")
            changed[out.receiver] = record.with_received(out)
    target = config.advance(message, changed, emitted)
    return Transition(source=config, rule=rule, message=message, target=target, emitted=tuple(emitted))


# ---------------------------------------------------------------------------
# Execution

def initial_configuration(
    workflow: WorkflowDef, registry: Registry, requests: Sequence[WsoRequest]
) -> Configuration:
    """Seed a configuration with the service actors, one client record per
    request, and the undelivered request messages (ordered by client id)."""
    ids = [request.client_id for request in requests]
    if len(ids) != len(set(ids)):
        raise ValueError("client ids must be unique across requests")
    for request in requests:
        if request.ontology != workflow.ontology:
            raise ValueError(
                f"request {request.client_id!r} asks for {request.ontology!r}, "
                f"workflow defines {workflow.ontology!r}"
            )
    actors: list[tuple[str, object]] = [
        (WSOIM_ADDRESS, ManagerState(workflow)),
        (SS_ADDRESS, SelectorState(registry)),
    ]
    actors.extend(
        (client_address(request.client_id), ClientRecord(request.client_id))
        for request in requests
    )
    pool = tuple(
        build_message(
            MessageKind.WSO_REQUEST,
            request.client_id,
            ontology=request.ontology,
            qos=request.qos,
            params=request.input_parameters,
        )
        for request in sorted(requests, key=lambda r: r.client_id)
    )
    return Configuration(actors=tuple(actors), undelivered=pool)


def _check_terminal(config: Configuration) -> None:
    if config.undelivered:
        raise EngineError("run ended with undelivered messages")
    for _, instance in config.instances():
        if instance.state not in (InstanceState.COMPLETED, InstanceState.DENIED):
            raise EngineError(
                f"run ended with instance {instance.client_id!r} in {instance.state.value}"
            )


def run(
    workflow: WorkflowDef,
    registry: Registry,
    requests: Sequence[WsoRequest],
    seed: int,
    *,
    selector: Selector | None = None,
) -> Trace:
    """Drive one execution to termination, picking among enabled messages
    pseudo-randomly by seed.  Equal inputs and seed give identical traces."""
    rng = random.Random(seed)
    initial = initial_configuration(workflow, registry, requests)
    config, heads = initial, list(initial.heads)
    steps: list[Transition] = []
    while heads:
        transition = step(config, heads[rng.randrange(len(heads))], selector=selector)
        steps.append(transition)
        config = transition.target
        config.update_heads(heads)
    _check_terminal(config)
    return Trace(initial=initial, steps=steps)


@dataclass(frozen=True, eq=False)
class ConfigurationGraph:
    """The interned configurations reachable from an initial one.

    ``edges`` maps every node to its out-edges in ``heads`` order, none for a
    terminal node; each edge's target is the interned node, so every path
    through a node shares its object and its transitions.  ``terminals``
    lists the terminal nodes in the order the search reached them, and
    ``paths`` counts the maximal paths from ``initial``.  ``max_traces``, if
    set, bounds the paths :meth:`traces` lists.
    """

    initial: Configuration
    edges: dict[Configuration, tuple[Transition, ...]]
    terminals: tuple[Configuration, ...]
    paths: int
    max_traces: int | None = None

    def traces(self) -> tuple[Trace, ...]:
        """Every maximal path as a trace, depth first in ``heads`` order;
        more than max_traces of them raises StateSpaceLimitError before
        any is listed."""
        if self.max_traces is not None and self.paths > self.max_traces:
            raise StateSpaceLimitError(f"more than {self.max_traces} maximal traces")
        if not self.edges[self.initial]:
            return (Trace(initial=self.initial),)
        traces: list[Trace] = []
        prefix: list[Transition] = []  # the path to the node whose out-edges pending[-1] yields
        pending = [iter(self.edges[self.initial])]
        while pending:
            transition = next(pending[-1], None)
            if transition is None:
                pending.pop()
                if prefix:
                    prefix.pop()
            elif self.edges[transition.target]:
                prefix.append(transition)
                pending.append(iter(self.edges[transition.target]))
            else:
                traces.append(Trace(initial=self.initial, steps=(*prefix, transition)))
        return tuple(traces)


def explore_graph(
    workflow: WorkflowDef,
    registry: Registry,
    requests: Sequence[WsoRequest],
    max_transitions: int,
    *,
    selector: Selector | None = None,
) -> ConfigurationGraph:
    """The configuration graph of every interleaving of enabled messages.

    A depth-first search expands each distinct configuration once, so
    :func:`step`, a pure function of the configuration and the message (see
    :data:`Selector`), runs once per distinct edge.  A path longer than
    max_transitions raises StateSpaceLimitError: on the search's own path,
    so that a run that never terminates still stops, then on the longest.
    States only move forward, so the graph is acyclic, and the search
    finishes nodes in reverse topological order, which counts the paths.
    """
    if max_transitions < 1:
        raise ValueError("max_transitions must be positive")
    too_long = f"a path exceeded {max_transitions} transitions without terminating"
    initial = initial_configuration(workflow, registry, requests)
    nodes = {initial: initial}
    edges: dict[Configuration, tuple[Transition, ...]] = {}
    terminals: list[Configuration] = []
    below: dict[Configuration, tuple[int, int]] = {}  # finished node -> (paths, longest)
    # each stacked node with its heads and the out-edges found so far
    stack: list[tuple[Configuration, list[Message], list[Transition]]] = [
        (initial, list(initial.heads), [])
    ]
    while stack:
        config, heads, out = stack[-1]
        if len(out) < len(heads):
            transition = step(config, heads[len(out)], selector=selector)
            target = nodes.get(transition.target)
            if target is None:
                target = nodes[transition.target] = transition.target
                target_heads = heads.copy()
                target.update_heads(target_heads)
                if len(stack) >= max_transitions and target_heads:
                    raise StateSpaceLimitError(too_long)
                stack.append((target, target_heads, []))
            elif target is not transition.target:
                transition = replace(transition, target=target)
            out.append(transition)
            continue
        stack.pop()
        edges[config] = tuple(out)
        if not out:
            _check_terminal(config)
            terminals.append(config)
            below[config] = (1, 0)
            continue
        counts = [below.get(transition.target) for transition in out]
        if None in counts:  # an edge back to a node on the stack: a cycle
            raise StateSpaceLimitError(too_long)
        below[config] = (sum(c[0] for c in counts), 1 + max(c[1] for c in counts))
    paths, longest = below[initial]
    if longest > max_transitions:
        raise StateSpaceLimitError(too_long)
    return ConfigurationGraph(initial, edges, tuple(terminals), paths)


def explore(
    workflow: WorkflowDef,
    registry: Registry,
    requests: Sequence[WsoRequest],
    max_transitions: int,
    *,
    max_traces: int = DEFAULT_MAX_TRACES,
    selector: Selector | None = None,
) -> tuple[Trace, ...]:
    """All maximal traces reachable by any interleaving of enabled messages:
    the paths of :func:`explore_graph`, so no two share a label sequence and
    traces through one configuration share its transitions.  Exceeding
    max_transitions on any path, or max_traces overall, raises
    StateSpaceLimitError; the traces are counted before any is listed."""
    graph = explore_graph(workflow, registry, requests, max_transitions, selector=selector)
    return replace(graph, max_traces=max_traces).traces()
