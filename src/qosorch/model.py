"""Core domain model for QoS-aware service orchestration.

The model is a labelled transition system over immutable configurations.  A
configuration snapshots every actor (the instance manager, the service
selector, one orchestration instance per client request, and one record per
client) together with the pool of undelivered messages.  The rule engine
consumes one message per transition and never mutates a configuration in
place, so traces can be serialized, replayed, and checked independently of
the code that produced them.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right, insort
from collections.abc import Collection, Iterable, Iterator, Mapping
from dataclasses import dataclass, replace
from functools import cache
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, NamedTuple, Union

try:  # hashlib loads OpenSSL, which is heavy; like random, take the lean built-in first
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256

if TYPE_CHECKING:
    from .registry import Registry


# ---------------------------------------------------------------------------
# Parameter maps
#
# All request/activity parameters are ordered name->value string maps, frozen
# into key-sorted tuples so that equality, hashing, and serialization are
# deterministic.

Params = tuple[tuple[str, str], ...]


def freeze_params(values: Mapping[str, str] | Iterable[tuple[str, str]]) -> Params:
    """Canonicalize a parameter mapping into a key-sorted tuple of pairs."""
    items = list(values.items()) if isinstance(values, Mapping) else list(values)
    seen: dict[str, str] = {}
    for key, value in items:
        if not isinstance(key, str) or not isinstance(value, str):
            raise TypeError(f"parameter entries must be str pairs, got ({key!r}, {value!r})")
        if key in seen:
            raise ValueError(f"duplicate parameter key {key!r}")
        seen[key] = value
    return tuple(sorted(seen.items()))


# ---------------------------------------------------------------------------
# QoS

@dataclass(frozen=True)
class QoSSpec:
    """A response-time bound (milliseconds) paired with a cost budget (cents)."""

    response_time_ms: int
    cost_cents: int

    def __post_init__(self) -> None:
        for label, value in (
            ("response_time_ms", self.response_time_ms),
            ("cost_cents", self.cost_cents),
        ):
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{label} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{label} must be >= 0, got {value}")


# ---------------------------------------------------------------------------
# State machines

class InstanceState(enum.Enum):
    # A member equals only itself, so the identity hash agrees with equality
    # and, unlike Enum.__hash__, runs no Python code.
    __hash__ = object.__hash__

    WAITING = "Waiting"
    GRANTED = "Granted"
    DENIED = "Denied"
    SERVICING = "Servicing"
    COMPLETED = "Completed"


INSTANCE_SUCCESSORS: dict[InstanceState, frozenset[InstanceState]] = {
    InstanceState.WAITING: frozenset(
        {InstanceState.WAITING, InstanceState.GRANTED, InstanceState.DENIED}
    ),
    InstanceState.GRANTED: frozenset({InstanceState.GRANTED, InstanceState.SERVICING}),
    InstanceState.SERVICING: frozenset(
        {InstanceState.SERVICING, InstanceState.COMPLETED}
    ),
    InstanceState.DENIED: frozenset({InstanceState.DENIED}),
    InstanceState.COMPLETED: frozenset({InstanceState.COMPLETED}),
}


class ActivityState(enum.Enum):
    __hash__ = object.__hash__  # as InstanceState's

    PREPARING = "Preparing"
    INVOKING = "Invoking"
    RETURNED = "Returned"


ACTIVITY_SUCCESSORS: dict[ActivityState, frozenset[ActivityState]] = {
    ActivityState.PREPARING: frozenset({ActivityState.PREPARING, ActivityState.INVOKING}),
    ActivityState.INVOKING: frozenset({ActivityState.INVOKING, ActivityState.RETURNED}),
    ActivityState.RETURNED: frozenset({ActivityState.RETURNED}),
}


# A value outside the state domain neither follows nor is followed by any.
def instance_state_can_follow(current: InstanceState, nxt: InstanceState) -> bool:
    return nxt in INSTANCE_SUCCESSORS.get(current, ())


def activity_state_can_follow(current: ActivityState, nxt: ActivityState) -> bool:
    return nxt in ACTIVITY_SUCCESSORS.get(current, ())


def state_text(state) -> str:
    """The name of a state, or the value that stands where a state should."""
    return getattr(state, "value", state)


# ---------------------------------------------------------------------------
# Requests, activities, instances

@dataclass(frozen=True)
class WsoRequest:
    """A client's 4-tuple request: who, which orchestration, inputs, budget."""

    client_id: str
    ontology: str
    input_parameters: Params
    qos: QoSSpec

    def __post_init__(self) -> None:
        if not self.client_id or not isinstance(self.client_id, str):
            raise ValueError("client_id must be a non-empty string")
        if ":" in self.client_id:
            raise ValueError("client_id must not contain ':'")
        if not self.ontology:
            raise ValueError("ontology must be a non-empty string")
        object.__setattr__(self, "input_parameters", freeze_params(self.input_parameters))


@dataclass(frozen=True)
class WsBinding:
    """The component service selected for one activity, or unbound.

    The endpoint is a registry candidate id; it is present exactly when the
    advertised QoS of the selected candidate is.
    """

    endpoint: str | None = None
    advertised_qos: QoSSpec | None = None

    def __post_init__(self) -> None:
        if (self.endpoint is None) != (self.advertised_qos is None):
            raise ValueError("endpoint and advertised_qos must be both set or both nil")

    @property
    def bound(self) -> bool:
        return self.endpoint is not None


@dataclass(frozen=True)
class ActivityActor:
    """One activity of an instance; invokes exactly one bound component service."""

    aa_name: str
    wsoi_id: str
    qos: QoSSpec | None
    input_parameters: Params | None
    output_parameters: Params | None
    state: ActivityState
    ws: WsBinding

    def __post_init__(self) -> None:
        if self.input_parameters is not None:
            object.__setattr__(self, "input_parameters", freeze_params(self.input_parameters))
        if self.output_parameters is not None:
            object.__setattr__(self, "output_parameters", freeze_params(self.output_parameters))

    @classmethod
    def initial(cls, aa_name: str, wsoi_id: str) -> ActivityActor:
        """A freshly created activity: Preparing, everything nil, unbound."""
        return cls(
            aa_name=aa_name,
            wsoi_id=wsoi_id,
            qos=None,
            input_parameters=None,
            output_parameters=None,
            state=ActivityState.PREPARING,
            ws=WsBinding(),
        )


@dataclass(frozen=True)
class WsoInstance:
    """A running orchestration instance: the request, its state, its activities."""

    request: WsoRequest
    state: InstanceState
    activities: tuple[ActivityActor, ...]
    output_parameters: Params | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "activities", tuple(self.activities))
        if self.output_parameters is not None:
            object.__setattr__(self, "output_parameters", freeze_params(self.output_parameters))
        names = [aa.aa_name for aa in self.activities]
        if len(names) != len(set(names)):
            raise ValueError("activity names must be unique within an instance")

    @classmethod
    def create(cls, request: WsoRequest, activity_names: Iterable[str]) -> WsoInstance:
        """A newly created instance: Waiting, outputs nil, all activities initial."""
        return cls(
            request=request,
            state=InstanceState.WAITING,
            activities=tuple(
                ActivityActor.initial(name, request.client_id) for name in activity_names
            ),
            output_parameters=None,
        )

    @property
    def client_id(self) -> str:
        return self.request.client_id

    def activity_names(self) -> tuple[str, ...]:
        return tuple(aa.aa_name for aa in self.activities)

    def with_activity(self, updated: ActivityActor) -> WsoInstance:
        activities = tuple(
            updated if aa.aa_name == updated.aa_name else aa for aa in self.activities
        )
        return replace(self, activities=activities)


# ---------------------------------------------------------------------------
# Workflow definitions

@dataclass(frozen=True)
class WorkflowDef:
    """An orchestration ontology plus its ordered (activity, ontology) list."""

    ontology: str
    activities: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "activities", tuple((str(n), str(o)) for n, o in self.activities)
        )
        if not self.ontology:
            raise ValueError("workflow ontology must be non-empty")
        if not self.activities:
            raise ValueError("workflow must declare at least one activity")
        names = [name for name, _ in self.activities]
        if len(names) != len(set(names)):
            raise ValueError("workflow activity names must be unique")
        for name, component in self.activities:
            if not name or not component:
                raise ValueError("activity names and ontologies must be non-empty")
            if "." in name:
                raise ValueError(f"activity name {name!r} must not contain '.'")

    def activity_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.activities)


# ---------------------------------------------------------------------------
# Actor addresses

WSOIM_ADDRESS = "wsoim"
SS_ADDRESS = "ss"


class Role(enum.Enum):
    __hash__ = object.__hash__  # as InstanceState's

    MANAGER = "manager"
    SELECTOR = "selector"
    CLIENT = "client"
    INSTANCE = "instance"
    ACTIVITY = "activity"
    SERVICE = "service"


def client_address(client_id: str) -> str:
    return f"ca:{client_id}"


def instance_address(client_id: str) -> str:
    return f"wsoi:{client_id}"


def activity_address(client_id: str, aa_name: str) -> str:
    return f"aa:{client_id}:{aa_name}"


def service_address(client_id: str, aa_name: str) -> str:
    return f"ws:{client_id}:{aa_name}"


_ROLE_PREFIXES = {
    "ca": Role.CLIENT,
    "wsoi": Role.INSTANCE,
    "aa": Role.ACTIVITY,
    "ws": Role.SERVICE,
}


class Address(NamedTuple):
    """What an address names: the role of its actor (None for no role), the
    client id it embeds and the activity name it ends in (None where it has
    none).  A bare role prefix such as ``"aa"`` embeds no client id, an
    activity address without a second ``':'`` ends in no activity name, and
    an activity name may itself contain ``':'``."""

    role: Role | None
    client_id: str | None = None
    aa_name: str | None = None


@cache
def parse_address(address: str) -> Address:
    """The one parser of the address grammar, memoised: a process sees few
    distinct addresses and parses each many times."""
    if address == WSOIM_ADDRESS:
        return Address(Role.MANAGER)
    if address == SS_ADDRESS:
        return Address(Role.SELECTOR)
    prefix, *rest = address.split(":", 1)
    role = _ROLE_PREFIXES.get(prefix)
    if role is None or not rest:
        return Address(role)
    if role in (Role.CLIENT, Role.INSTANCE):
        return Address(role, rest[0])
    client_id, *aa_name = rest[0].split(":", 1)
    return Address(role, client_id, aa_name[0] if aa_name else None)


# ---------------------------------------------------------------------------
# Messages

class MessageKind(enum.Enum):
    __hash__ = object.__hash__  # as InstanceState's

    WSO_REQUEST = "wsoReq"
    SELECT = "select"
    SELECT_REPLY_GRANTED = "selectReplyGranted"
    SELECT_REPLY_DENIED = "selectReplyDenied"
    INVOKE = "invoke"
    INVOKE_ACK = "invokeAck"
    INVOKE_WS = "invokeWs"
    INVOKE_REPLY = "invokeReply"
    NOTIFY = "notify"
    GRANTED_REPLY = "grantedReply"
    COMPLETED_REPLY = "completedReply"
    DENIED_REPLY = "deniedReply"


@dataclass(frozen=True)
class AllocatedBinding:
    """One activity's selected candidate, carried in a granted selection reply."""

    aa_name: str
    candidate_id: str
    qos: QoSSpec


@dataclass(frozen=True)
class Message:
    """One message of the closed request/reply/notification vocabulary.

    Payload fields are kind-specific; the vocabulary checker
    (:func:`message_schema_error`) knows which fields each kind requires.
    """

    kind: MessageKind
    sender: str
    receiver: str
    client_id: str
    ontology: str | None = None
    qos: QoSSpec | None = None
    params: Params | None = None
    assignment: tuple[AllocatedBinding, ...] | None = None
    aa_name: str | None = None
    aa_state: ActivityState | None = None

    def __post_init__(self) -> None:
        if self.params is not None:
            object.__setattr__(self, "params", freeze_params(self.params))
        if self.assignment is not None:
            ordered = tuple(sorted(self.assignment, key=lambda b: b.aa_name))
            object.__setattr__(self, "assignment", ordered)

    def sort_key(self) -> tuple[str, str, str, str]:
        """(kind, sender, receiver, client_id): the order deliverable
        messages are listed in."""
        return _SORT_KEY(self)


# kind -> (sender role, receiver role, required payload fields)
_MESSAGE_SCHEMA: dict[MessageKind, tuple[Role, Role, frozenset[str]]] = {
    MessageKind.WSO_REQUEST: (Role.CLIENT, Role.MANAGER, frozenset({"ontology", "qos", "params"})),
    MessageKind.SELECT: (Role.INSTANCE, Role.SELECTOR, frozenset({"ontology", "qos"})),
    MessageKind.SELECT_REPLY_GRANTED: (Role.SELECTOR, Role.INSTANCE, frozenset({"assignment"})),
    MessageKind.SELECT_REPLY_DENIED: (Role.SELECTOR, Role.INSTANCE, frozenset()),
    MessageKind.INVOKE: (Role.INSTANCE, Role.ACTIVITY, frozenset()),
    MessageKind.INVOKE_ACK: (Role.ACTIVITY, Role.INSTANCE, frozenset()),
    MessageKind.INVOKE_WS: (Role.ACTIVITY, Role.SERVICE, frozenset({"params"})),
    MessageKind.INVOKE_REPLY: (Role.SERVICE, Role.ACTIVITY, frozenset({"params"})),
    MessageKind.NOTIFY: (Role.ACTIVITY, Role.INSTANCE, frozenset({"aa_name", "aa_state"})),
    MessageKind.GRANTED_REPLY: (Role.INSTANCE, Role.CLIENT, frozenset({"ontology", "qos"})),
    MessageKind.COMPLETED_REPLY: (Role.INSTANCE, Role.CLIENT, frozenset({"ontology", "qos", "params"})),
    MessageKind.DENIED_REPLY: (Role.INSTANCE, Role.CLIENT, frozenset({"ontology", "qos"})),
}

_PAYLOAD_FIELDS = ("ontology", "qos", "params", "assignment", "aa_name", "aa_state")


def receiver_role(kind: MessageKind) -> Role:
    """The role of the actor that every message of this kind is addressed to."""
    return _MESSAGE_SCHEMA[kind][1]


# role -> the address of its actor for (client id, activity name)
_ROLE_ADDRESS = {
    Role.MANAGER: lambda client_id, activity: WSOIM_ADDRESS,
    Role.SELECTOR: lambda client_id, activity: SS_ADDRESS,
    Role.CLIENT: lambda client_id, activity: client_address(client_id),
    Role.INSTANCE: lambda client_id, activity: instance_address(client_id),
    Role.ACTIVITY: activity_address,
    Role.SERVICE: service_address,
}


def build_message(
    kind: MessageKind, client_id: str, activity: str | None = None, **payload
) -> Message:
    """A message of this kind for client_id, sent and received by the
    actors of its kind's sender and receiver roles; activity names the
    activity whose activity or service actor is one of them."""
    sender, receiver, _ = _MESSAGE_SCHEMA[kind]
    return Message(
        kind=kind,
        sender=_ROLE_ADDRESS[sender](client_id, activity),
        receiver=_ROLE_ADDRESS[receiver](client_id, activity),
        client_id=client_id,
        **payload,
    )


def message_schema_error(message: Message) -> str | None:
    """Check one message against the vocabulary; return a description or None.

    A message conforms when its sender/receiver roles match its kind's unique
    row, exactly the row's payload fields are present, and any embedded
    client/activity identities agree with the addresses.
    """
    schema = _MESSAGE_SCHEMA.get(message.kind)
    if schema is None:
        return f"unknown message kind {message.kind!r}"
    sender_role, receiver_role, required = schema
    sender, receiver = parse_address(message.sender), parse_address(message.receiver)
    if sender.role is not sender_role:
        return (
            f"{message.kind.value} must be sent by a {sender_role.value} actor, "
            f"got sender {message.sender!r}"
        )
    if receiver.role is not receiver_role:
        return (
            f"{message.kind.value} must be received by a {receiver_role.value} actor, "
            f"got receiver {message.receiver!r}"
        )
    for field_name in _PAYLOAD_FIELDS:
        value = getattr(message, field_name)
        if field_name in required and value is None:
            return f"{message.kind.value} requires payload field {field_name!r}"
        if field_name not in required and value is not None:
            return f"{message.kind.value} must not carry payload field {field_name!r}"
    for address, parsed in ((message.sender, sender), (message.receiver, receiver)):
        if parsed.client_id is not None and parsed.client_id != message.client_id:
            return (
                f"{message.kind.value} client_id {message.client_id!r} does not match "
                f"address {address!r}"
            )
    if message.kind is MessageKind.NOTIFY:
        if message.aa_state is not ActivityState.RETURNED:
            return "notify must report state Returned"
        if sender.aa_name != message.aa_name:
            return f"notify names activity {message.aa_name!r} but was sent by {message.sender!r}"
    if message.kind is MessageKind.INVOKE_WS:
        if sender.aa_name != receiver.aa_name:
            return "service invocation must target the sender activity's own service"
    return None


# ---------------------------------------------------------------------------
# Configurations

@dataclass(frozen=True)
class ManagerState:
    """Constant state of the instance manager: the workflow it instantiates."""

    workflow: WorkflowDef


@dataclass(frozen=True)
class SelectorState:
    """Constant state of the service selector: the registry it consults."""

    registry: "Registry"


@dataclass(frozen=True)
class ClientRecord:
    """An external client and the terminal replies delivered to it."""

    client_id: str
    received: tuple[Message, ...] = ()

    def with_received(self, message: Message) -> ClientRecord:
        return replace(self, received=self.received + (message,))


ActorSnapshot = Union[ManagerState, SelectorState, WsoInstance, ClientRecord]

_ROLE_SNAPSHOT_TYPES: dict[Role, type] = {
    Role.MANAGER: ManagerState,
    Role.SELECTOR: SelectorState,
    Role.CLIENT: ClientRecord,
    Role.INSTANCE: WsoInstance,
}


# Orders over messages, as C-level getters so that bisecting a message tuple
# calls no Python code: a channel is (receiver, sender), CHANNEL_KEY orders a
# pool (see Configuration), and deliverable messages list by Message.sort_key.
# An enum member's ``value`` is a property written in Python; ``_value_`` is
# the plain attribute that holds it.
CHANNEL_KEY = attrgetter("receiver", "sender")
_RECEIVER = attrgetter("receiver")
_SORT_KEY = attrgetter("kind._value_", "sender", "receiver", "client_id")
_ADDRESS = itemgetter(0)


def channel_owner(sender: str, receiver: str) -> str | None:
    """The client that owns the channel from sender to receiver: the client
    id of the receiver's address, else the one of the sender's; None for a
    channel of no client."""
    owner = parse_address(receiver).client_id
    return parse_address(sender).client_id if owner is None else owner


class _Component:
    """The actors of one owner, ordered by address, and the channels it
    owns, in the pool's canonical order (see Configuration).  It is never
    changed once built, so its hash is computed once."""

    __slots__ = ("actors", "pool", "_hash")

    def __init__(self, actors: tuple, pool: tuple) -> None:
        self.actors, self.pool, self._hash = actors, pool, None

    def __eq__(self, other: _Component) -> bool:  # compared only with components
        return self is other or (self.actors == other.actors and self.pool == other.pool)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.actors, self.pool))
        return self._hash


_NOBODY = _Component((), ())


def _owner_order(owner: str | None) -> tuple[bool, str]:
    """No client first, then client ids in order."""
    return owner is not None, owner or ""


class Configuration:
    """A snapshot of all actors plus the pool of undelivered messages.

    The pool is a set of per-channel FIFO queues, so its one canonical form
    groups messages by (receiver, sender) channel, channels in that order,
    oldest first within a channel; the constructor accepts any order across
    channels.  Equality and hash cover only that form, and :attr:`heads`
    is derived from it.

    Both are held by owner.  An actor's owner is the client id of its
    address, and a channel's is given by :func:`channel_owner`; the manager
    and the selector belong to no client.  The actors and channels of no
    client form one component, and those of each client another, kept in
    client-id order after it; a component is immutable and shared by every
    configuration that holds it.  The owner is a function of the address
    and of the channel, so equal configurations have equal components, and
    the hash combines the cached hashes of the components.  :attr:`actors`
    and :attr:`undelivered` are flat views, built on demand.

    :meth:`advance` builds a target from its source by rebuilding only the
    components of the consumed channel, the emitted channels and the
    replaced actors, and sharing the others: it records which addresses it
    replaced, which :meth:`changes` then visits, and which messages left
    and joined the heads, which :meth:`update_heads` then applies.
    """

    __slots__ = ("_parts", "_index", "_source", "_replaced", "_moved", "_hash")

    # _parts: the non-empty components, by _owner_order; _index: owner ->
    # position in _parts, which a target shares with its source while the
    # owners stay the same.  For a target built by advance, _source is the
    # source, _replaced the addresses it replaced and _moved (the head that
    # left or None, *the messages that became heads).

    def __init__(
        self,
        actors: Iterable[tuple[str, ActorSnapshot]],
        undelivered: Iterable[Message] = (),
    ) -> None:
        grouped: dict[str | None, tuple[list, list]] = {}
        for pair in actors:
            grouped.setdefault(parse_address(pair[0]).client_id, ([], []))[0].append(pair)
        for message in undelivered:
            owner = channel_owner(message.sender, message.receiver)
            grouped.setdefault(owner, ([], []))[1].append(message)
        components = {}
        for owner, (listed, pool) in grouped.items():
            listed.sort(key=_ADDRESS)
            if any(a[0] == b[0] for a, b in zip(listed, listed[1:])):
                raise ValueError("actor addresses must be unique")
            pool.sort(key=CHANNEL_KEY)  # stable: FIFO within a channel
            components[owner] = _Component(tuple(listed), tuple(pool))
        owners = sorted(components, key=_owner_order)
        parts = tuple(components[owner] for owner in owners)
        self._set(parts, dict(zip(owners, range(len(owners)))), None, (), None)

    def _set(self, parts, index, source, replaced, moved) -> None:
        self._parts, self._index = parts, index
        self._source, self._replaced, self._moved, self._hash = source, replaced, moved, None

    def _component(self, owner: str | None) -> _Component:
        position = self._index.get(owner)
        return _NOBODY if position is None else self._parts[position]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self is other or self._parts == other._parts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._parts)
        return self._hash

    def __repr__(self) -> str:
        return f"Configuration(actors={self.actors!r}, undelivered={self.undelivered!r})"

    @property
    def actors(self) -> tuple[tuple[str, ActorSnapshot], ...]:
        """Every (address, snapshot), ordered by address."""
        pairs = (pair for component in self._parts for pair in component.actors)
        return tuple(sorted(pairs, key=_ADDRESS))

    @property
    def undelivered(self) -> tuple[Message, ...]:
        """The pool in its canonical form."""
        return tuple(sorted(self._messages(), key=CHANNEL_KEY))  # stable: FIFO within a channel

    def _messages(self) -> list[Message]:
        return [message for component in self._parts for message in component.pool]

    def actor(self, address: str) -> ActorSnapshot | None:
        for pair in self._component(parse_address(address).client_id).actors:  # a handful
            if pair[0] == address:
                return pair[1]
        return None

    def pool(self, owner: str | None) -> tuple[Message, ...]:
        """The messages of the channels that owner owns, in canonical order."""
        return self._component(owner).pool

    def same_pools(self, other: Configuration, but: Collection[str | None] = ()) -> bool:
        """Whether every owner outside but has the same pool here as in other."""
        index = self._index
        if index is other._index:  # first compare components, mostly by identity
            parts = list(self._parts)
            for owner in but:
                position = index.get(owner)
                if position is not None:
                    parts[position] = other._parts[position]
            if tuple(parts) == other._parts:
                return True
        owners = index.keys() | other._index.keys()
        return all(o in but or self.pool(o) == other.pool(o) for o in owners)

    @property
    def heads(self) -> tuple[Message, ...]:
        """The deliverable messages, the oldest of each channel, sorted by
        :meth:`Message.sort_key`."""
        first = {CHANNEL_KEY(m): m for m in reversed(self._messages())}
        return tuple(sorted(first.values(), key=_SORT_KEY))

    def update_heads(self, heads: list[Message]) -> None:
        """Turn heads, the :attr:`heads` of the configuration that
        :meth:`advance` built this one from, into this one's, in place."""
        left, *entered = self._moved
        if left is not None:
            del heads[bisect_left(heads, _SORT_KEY(left), key=_SORT_KEY)]
        for message in entered:
            insort(heads, message, key=_SORT_KEY)

    def channel(self, sender: str, receiver: str) -> tuple[Message, ...]:
        """The messages pending from sender to receiver, oldest first."""
        pool, key = self.pool(channel_owner(sender, receiver)), (receiver, sender)
        lo = bisect_left(pool, key, key=CHANNEL_KEY)
        return pool[lo : bisect_right(pool, key, lo, key=CHANNEL_KEY)]

    def pending_to(self, receiver: str) -> tuple[Message, ...]:
        """The messages pending to receiver, channel by channel."""
        owner = parse_address(receiver).client_id  # which owns every channel to receiver, if any
        pool = self.undelivered if owner is None else self.pool(owner)
        lo = bisect_left(pool, receiver, key=_RECEIVER)
        return pool[lo : bisect_right(pool, receiver, lo, key=_RECEIVER)]

    def advance(
        self,
        consumed: Message,
        changed: Mapping[str, ActorSnapshot | None],
        emitted: Iterable[Message],
    ) -> Configuration:
        """The target of a transition that consumes one message.

        Changed actors replace their snapshots (``None`` removes one) and the
        rest are shared.  The first pending copy of the consumed message
        leaves its channel; emitted messages join the end of theirs in order,
        except replies to clients, whose records the caller passes among the
        changed actors.
        """
        actor_lists: dict[str | None, list] = {}  # owner -> its actors, being edited
        for address, snapshot in changed.items():
            owner = parse_address(address).client_id
            listed = actor_lists.get(owner)
            if listed is None:
                listed = actor_lists[owner] = list(self._component(owner).actors)
            position = bisect_left(listed, address, key=_ADDRESS)
            present = position < len(listed) and listed[position][0] == address
            if snapshot is not None and present:
                listed[position] = (address, snapshot)
            elif snapshot is not None:
                listed.insert(position, (address, snapshot))
            elif present:
                del listed[position]
        pools: dict[str | None, list[Message]] = {}  # owner -> its pool, being edited

        def pool_of(message: Message) -> list[Message]:
            owner = channel_owner(message.sender, message.receiver)
            pool = pools.get(owner)
            if pool is None:
                pool = pools[owner] = list(self.pool(owner))
            return pool

        pool, moved = pool_of(consumed), [None]
        key = CHANNEL_KEY(consumed)
        lo = bisect_left(pool, key, key=CHANNEL_KEY)
        for position in range(lo, bisect_right(pool, key, lo, key=CHANNEL_KEY)):
            if pool[position] is consumed or pool[position] == consumed:
                del pool[position]
                if position == lo:  # the channel's head: its successor, if any, takes over
                    moved[0] = consumed
                    if lo < len(pool) and CHANNEL_KEY(pool[lo]) == key:
                        moved.append(pool[lo])
                break
        for message in emitted:
            if parse_address(message.receiver).role is Role.CLIENT:
                continue
            pool, key = pool_of(message), CHANNEL_KEY(message)
            position = bisect_right(pool, key, key=CHANNEL_KEY)
            if position == 0 or CHANNEL_KEY(pool[position - 1]) != key:
                moved.append(message)
            pool.insert(position, message)

        rebuilt: dict[str | None, _Component | None] = {}  # owner -> its component, None if empty
        for owner in actor_lists.keys() | pools.keys():
            kept, listed, pool = self._component(owner), actor_lists.get(owner), pools.get(owner)
            actors = kept.actors if listed is None else tuple(listed)
            pool = kept.pool if pool is None else tuple(pool)
            rebuilt[owner] = _Component(actors, pool) if actors or pool else None
        parts, index = self._parts, self._index
        if all(component is not None and owner in index for owner, component in rebuilt.items()):
            listed = list(parts)
            for owner, component in rebuilt.items():
                listed[index[owner]] = component
            parts = tuple(listed)
        else:  # an owner gains its first or loses its last actor and channel
            merged = dict(zip(index, parts))
            merged.update(rebuilt)
            owners = [owner for owner, component in merged.items() if component is not None]
            owners.sort(key=_owner_order)
            parts = tuple(merged[owner] for owner in owners)
            index = dict(zip(owners, range(len(owners))))
        target = object.__new__(Configuration)
        target._set(parts, index, self, tuple(sorted(changed)), tuple(moved))
        return target

    def changes(
        self, target: Configuration
    ) -> list[tuple[str, ActorSnapshot | None, ActorSnapshot | None]]:
        """The actors ``target`` adds, removes or replaces with an unequal
        snapshot, as (address, before, after) ordered by address; ``None``
        stands for an absent actor."""
        if target._source is self:
            candidates = [(a, self.actor(a), target.actor(a)) for a in target._replaced]
        else:
            candidates = []
            for owner in self._index.keys() | target._index.keys():
                before, after = self._component(owner).actors, target._component(owner).actors
                if before is not after:
                    prior = dict(before)
                    candidates.extend((a, prior.pop(a, None), s) for a, s in after)
                    candidates.extend((a, s, None) for a, s in prior.items())
            candidates.sort(key=_ADDRESS)
        return [c for c in candidates if c[1] is not c[2] and c[1] != c[2]]

    def instances(self) -> Iterator[tuple[str, WsoInstance]]:
        for address, snapshot in self.actors:
            if isinstance(snapshot, WsoInstance):
                yield address, snapshot


def get_wsoi(config: Configuration, client_id: str) -> WsoInstance | None:
    """The unique instance created for client_id, or None if none exists yet."""
    snapshot = config.actor(instance_address(client_id))
    return snapshot if isinstance(snapshot, WsoInstance) else None


def get_aa(instance: WsoInstance, aa_name: str | None) -> ActivityActor | None:
    """The named activity of an instance, or None if it has none by that name."""
    for aa in instance.activities:
        if aa.aa_name == aa_name:
            return aa
    return None


def snapshot_error(address: str, snapshot: ActorSnapshot) -> str | None:
    """Check that a snapshot has the type its address's role holds and, for
    instances and client records, carries the client id of its address."""
    role = parse_address(address).role
    if role not in _ROLE_SNAPSHOT_TYPES or not isinstance(snapshot, _ROLE_SNAPSHOT_TYPES[role]):
        return f"address {address!r} holds a {type(snapshot).__name__} snapshot"
    if isinstance(snapshot, WsoInstance) and address != instance_address(snapshot.client_id):
        return f"instance at {address!r} labelled {snapshot.client_id!r}"
    if isinstance(snapshot, ClientRecord) and address != client_address(snapshot.client_id):
        return f"client record at {address!r} labelled {snapshot.client_id!r}"
    return None


def resolves(config: Configuration, address: str) -> bool:
    """Whether some actor of config makes address resolvable, read from the
    one actor that can, its owner: for an activity or service address, the
    instance of the client id it embeds, which must have an activity of the
    name it ends in, bound for a service address; for any other address, an
    actor at it of a role that holds a snapshot."""
    role, client_id, aa_name = parse_address(address)
    if role not in (Role.ACTIVITY, Role.SERVICE):
        return role in _ROLE_SNAPSHOT_TYPES and config.actor(address) is not None
    if aa_name is None:
        return False
    instance = config.actor(instance_address(client_id))
    return isinstance(instance, WsoInstance) and any(
        f"{aa.aa_name}" == aa_name and (role is Role.ACTIVITY or aa.ws.bound)
        for aa in instance.activities
    )


# ---------------------------------------------------------------------------
# Transitions and traces

class RuleId(enum.Enum):
    __hash__ = object.__hash__  # as InstanceState's

    R1_WSOIM_CREATE = "R1_WsoimCreate"
    R2A_SELECT_DENIED = "R2a_SelectDenied"
    R2B_SELECT_GRANTED = "R2b_SelectGranted"
    R3_INVOKE_ACK = "R3_InvokeAck"
    R4A_NOTIFY_ALL_RETURNED = "R4a_NotifyAllReturned"
    R4B_NOTIFY_SOME_PENDING = "R4b_NotifySomePending"
    R5_SS_SELECT = "R5_SsSelect"
    R6_AA_INVOKE = "R6_AaInvoke"
    R7_AA_RETURN = "R7_AaReturn"
    R8_WS_INVOKE = "R8_WsInvoke"


@dataclass(frozen=True)
class Transition:
    """One rule application: source -(rule, consumed message)-> target."""

    source: Configuration
    rule: RuleId
    message: Message
    target: Configuration
    emitted: tuple[Message, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "emitted", tuple(self.emitted))


@dataclass(frozen=True)
class Trace:
    """A finite computation path: adjacent transitions chain source to target."""

    initial: Configuration
    steps: tuple[Transition, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        previous = self.initial
        for index, step in enumerate(self.steps):
            if step.source != previous:
                raise ValueError(f"transition {index} does not chain from its predecessor")
            previous = step.target

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def final(self) -> Configuration:
        return self.steps[-1].target if self.steps else self.initial

    def configurations(self) -> list[Configuration]:
        return [self.initial] + [step.target for step in self.steps]
