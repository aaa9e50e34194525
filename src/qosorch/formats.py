"""JSONL serialization for workflows, requests, traces, and violations.

Every artifact file is line-delimited JSON: one record per line, keys sorted,
integers decimal, times in milliseconds, costs in cents.  Trace files are
self-contained: the trace record carries the full initial configuration
(including the manager's workflow and the selector's registry), and each
transition record carries the consumed message, the emitted messages, and
the changed actors with their before/after snapshots.  Field names are
frozen in docs/FORMATS.md.  Traces are written and read only as whole files
(:func:`write_traces`, :func:`read_traces`), so every error the reader
reports names the file and the line.

The trace reader parses only what each transition adds.  Once a changed
actor's ``before`` matches the source configuration, the parts of its
``after`` that repeat ``before`` (an instance's request and activities, a
client's received messages), and a consumed message that repeats a pending
one, are taken from the source instead of parsed again.  The result equals
a plain parse.  Beside the traces it builds, a read call keeps only what the
current configuration needs (:class:`_ReadMemo`): the canonical record of
the snapshot now at each address, which takes its parts' records from the
address's previous record, the records of the pending messages it compared
until they are consumed, and one object per distinct string, params value
and QoS value it parsed.  So each request, activity and message record is
built once per object.

The trace writer encodes each part once: an identity memo per write call
(:class:`_Memo`) holds the JSON text of each activity, request and message,
initial configuration and shared transition, and each address's latest
snapshot is kept with its text, so a ``before`` reuses the text of the
``after`` it repeats.  Lines are joined from these texts, byte for byte what
``json.dumps(record, sort_keys=True)`` gives.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .model import (
    ActivityActor,
    ActivityState,
    AllocatedBinding,
    ClientRecord,
    Configuration,
    InstanceState,
    ManagerState,
    Message,
    MessageKind,
    Params,
    QoSSpec,
    RuleId,
    SelectorState,
    Trace,
    Transition,
    WorkflowDef,
    WsBinding,
    WsoInstance,
    WsoRequest,
    freeze_params,
)
from .registry import Registry, candidate_from_record, candidate_to_record

if TYPE_CHECKING:
    from .conformance import Violation


class FormatError(ValueError):
    """An artifact file failed to parse or reassemble."""


# json.dumps builds an encoder on every call with sort_keys; this one is built once.
_encode = json.JSONEncoder(sort_keys=True).encode


def _read_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """The records of a JSONL file, each with its line number, parsed one
    line at a time."""
    with Path(path).open("rb") as handle:
        line_no = 0
        for raw in handle:
            try:
                # str.splitlines numbers lines as a whole-file read would.
                lines = raw.decode("utf-8").splitlines()
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}:{line_no + 1}: not UTF-8: {exc}") from exc
            for line in lines:
                line_no += 1
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise FormatError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
                if not isinstance(record, dict) or "record" not in record:
                    raise FormatError(f"{path}:{line_no}: expected a record object")
                yield line_no, record


def _load_records(path: str | Path, kind: str, parse) -> list[tuple[int, object]]:
    """Each record of a file that holds only records of one kind, parsed,
    with its line number; a record of another kind, or one whose parse
    raises a ValueError, is a FormatError that names the file and the line."""
    parsed = []
    for line_no, record in _read_records(path):
        if record["record"] != kind:
            raise FormatError(
                f"{path}:{line_no}: expected a {kind} record, got {record['record']!r}"
            )
        try:
            parsed.append((line_no, parse(record)))
        except ValueError as exc:
            raise FormatError(f"{path}:{line_no}: {exc}") from exc
    return parsed


# ---------------------------------------------------------------------------
# Scalars

def qos_to_record(qos: QoSSpec) -> dict:
    return {"response_time_ms": qos.response_time_ms, "cost_cents": qos.cost_cents}


def qos_from_record(record: dict) -> QoSSpec:
    return QoSSpec(
        response_time_ms=record["response_time_ms"], cost_cents=record["cost_cents"]
    )


def _params_record(params: Params | None) -> dict | None:
    return None if params is None else dict(params)


def _params_value(value: dict | None, values: _Reading) -> Params | None:
    return None if value is None else values.share(freeze_params(value))


def _text(record: dict, key: str, *, optional: bool = False) -> str | None:
    """A string field; an optional one may be absent or null."""
    value = record.get(key) if optional else record[key]
    if not isinstance(value, str) and not (optional and value is None):
        raise TypeError(f"{key!r} must be a string, got {value!r}")
    return value


class _Reading:
    """How a parse makes values and records: each one anew.  Its subclass
    :class:`_ReadMemo` shares and keeps them within one read call."""

    def share(self, value):
        """value, a string or a params tuple, or an equal one to use instead."""
        return value

    def qos(self, record: dict) -> QoSSpec:
        return qos_from_record(record)

    def pending_record(self, message: Message) -> dict:
        """The canonical record of a pending message."""
        return message_to_record(message)


_PLAIN = _Reading()


# ---------------------------------------------------------------------------
# Messages

def message_to_record(message: Message) -> dict:
    record: dict = {
        "kind": message.kind.value,
        "sender": message.sender,
        "receiver": message.receiver,
        "client_id": message.client_id,
    }
    if message.ontology is not None:
        record["ontology"] = message.ontology
    if message.qos is not None:
        record["qos"] = qos_to_record(message.qos)
    if message.params is not None:
        record["params"] = dict(message.params)
    if message.assignment is not None:
        record["assignment"] = [
            {
                "aa_name": binding.aa_name,
                "candidate_id": binding.candidate_id,
                "qos": qos_to_record(binding.qos),
            }
            for binding in message.assignment
        ]
    if message.aa_name is not None:
        record["aa_name"] = message.aa_name
    if message.aa_state is not None:
        record["aa_state"] = message.aa_state.value
    return record


def message_from_record(record: dict, values: _Reading = _PLAIN) -> Message:
    share = values.share
    try:
        assignment = None
        if "assignment" in record:
            assignment = tuple(
                AllocatedBinding(
                    aa_name=share(item["aa_name"]),
                    candidate_id=share(item["candidate_id"]),
                    qos=values.qos(item["qos"]),
                )
                for item in record["assignment"]
            )
        return Message(
            kind=MessageKind(record["kind"]),
            sender=share(_text(record, "sender")),
            receiver=share(_text(record, "receiver")),
            client_id=share(_text(record, "client_id")),
            ontology=share(_text(record, "ontology", optional=True)),
            qos=values.qos(record["qos"]) if "qos" in record else None,
            params=_params_value(record.get("params"), values),
            assignment=assignment,
            aa_name=share(_text(record, "aa_name", optional=True)),
            aa_state=ActivityState(record["aa_state"]) if "aa_state" in record else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad message record: {exc}") from exc


# ---------------------------------------------------------------------------
# Workflows and requests

def workflow_to_record(workflow: WorkflowDef) -> dict:
    return {
        "record": "workflow",
        "ontology": workflow.ontology,
        "activities": [
            {"name": name, "ontology": ontology} for name, ontology in workflow.activities
        ],
    }


def workflow_from_record(record: dict) -> WorkflowDef:
    try:
        return WorkflowDef(
            ontology=record["ontology"],
            activities=tuple(
                (item["name"], item["ontology"]) for item in record["activities"]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad workflow record: {exc}") from exc


def load_workflow(path: str | Path) -> WorkflowDef:
    workflows = _load_records(path, "workflow", workflow_from_record)
    if len(workflows) != 1:
        where = f"{path}:{workflows[1][0]}" if workflows else path  # the second record's line
        raise FormatError(f"{where}: expected exactly one workflow record, got {len(workflows)}")
    return workflows[0][1]


def dump_workflow(workflow: WorkflowDef, path: str | Path) -> None:
    Path(path).write_text(_encode(workflow_to_record(workflow)) + "\n", encoding="utf-8")


def request_to_record(request: WsoRequest) -> dict:
    return {
        "record": "request",
        "client_id": request.client_id,
        "ontology": request.ontology,
        "input_parameters": dict(request.input_parameters),
        "qos": qos_to_record(request.qos),
    }


def request_from_record(record: dict, values: _Reading = _PLAIN) -> WsoRequest:
    try:
        return WsoRequest(
            client_id=values.share(record["client_id"]),
            ontology=values.share(record["ontology"]),
            input_parameters=values.share(freeze_params(record["input_parameters"])),
            qos=values.qos(record["qos"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad request record: {exc}") from exc


def load_requests(path: str | Path) -> list[WsoRequest]:
    return [request for _, request in _load_records(path, "request", request_from_record)]


def dump_requests(requests: Iterable[WsoRequest], path: str | Path) -> None:
    lines = [_encode(request_to_record(r)) for r in requests]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# Actor snapshots

def _binding_record(binding: WsBinding) -> dict:
    return {
        "endpoint": binding.endpoint,
        "advertised_qos": None
        if binding.advertised_qos is None
        else qos_to_record(binding.advertised_qos),
    }


def _activity_record(aa: ActivityActor) -> dict:
    return {
        "aa_name": aa.aa_name,
        "wsoi_id": aa.wsoi_id,
        "qos": None if aa.qos is None else qos_to_record(aa.qos),
        "input_parameters": _params_record(aa.input_parameters),
        "output_parameters": _params_record(aa.output_parameters),
        "state": aa.state.value,
        "ws": _binding_record(aa.ws),
    }


def _activity_from_record(record: dict, values: _Reading) -> ActivityActor:
    ws, share = record["ws"], values.share
    return ActivityActor(
        aa_name=share(_text(record, "aa_name")),
        wsoi_id=share(record["wsoi_id"]),
        qos=None if record["qos"] is None else values.qos(record["qos"]),
        input_parameters=_params_value(record["input_parameters"], values),
        output_parameters=_params_value(record["output_parameters"], values),
        state=ActivityState(record["state"]),
        ws=WsBinding(
            endpoint=share(ws["endpoint"]),
            advertised_qos=None
            if ws["advertised_qos"] is None
            else values.qos(ws["advertised_qos"]),
        ),
    )


def _record_of(part, to_record) -> dict:
    return to_record(part)


def actor_to_record(address: str, snapshot, part=_record_of) -> dict:
    """An actor's record; an instance's request and activities, and a
    client's received messages, are recorded by ``part(value, to_record)``,
    which may give the record that to_record built before for that value."""
    if isinstance(snapshot, ManagerState):
        return {
            "address": address,
            "type": "manager",
            "workflow": workflow_to_record(snapshot.workflow),
        }
    if isinstance(snapshot, SelectorState):
        return {
            "address": address,
            "type": "selector",
            "registry": [candidate_to_record(c) for c in snapshot.registry.candidates()],
        }
    if isinstance(snapshot, WsoInstance):
        return {
            "address": address,
            "type": "instance",
            "request": part(snapshot.request, request_to_record),
            "state": snapshot.state.value,
            "output_parameters": _params_record(snapshot.output_parameters),
            "activities": [part(aa, _activity_record) for aa in snapshot.activities],
        }
    if isinstance(snapshot, ClientRecord):
        return {
            "address": address,
            "type": "client",
            "client_id": snapshot.client_id,
            "received": [part(m, message_to_record) for m in snapshot.received],
        }
    raise FormatError(f"cannot serialize actor snapshot {type(snapshot).__name__}")


def _exact(value) -> bool:
    """Whether a JSON value holds no bool and no float: true and 1.0 equal 1
    under ==, but the parse tells them apart."""
    if type(value) is dict:
        return all(map(_exact, value.values()))
    if type(value) is list:
        return all(map(_exact, value))
    return type(value) is not bool and type(value) is not float


def _same(record, canonical: dict) -> bool:
    """Whether record parses to the object that canonical is the record of.
    A canonical record parses, without error, to an object equal to the one
    it records, and so does any record equal to it that holds no bool and
    no float."""
    return record == canonical and _exact(record)


def _parse_shared(items, priors: Sequence, canonical: Sequence, parse) -> tuple:
    """Each item parsed, except an item that is the same as the canonical
    record of the prior at its position, which is that prior."""
    return tuple(
        priors[i] if i < len(canonical) and _same(item, canonical[i]) else parse(item)
        for i, item in enumerate(items)
    )


def actor_from_record(
    record: dict, before=None, before_record: dict | None = None, values: _Reading = _PLAIN
):
    """An actor's (address, snapshot), its values made by ``values``.

    Given the snapshot ``before`` that the record replaces and its canonical
    record ``before_record``, a part of an instance or client record that is
    the same as the part of ``before_record`` at its place is taken from
    ``before`` instead of parsed: the request, each activity by position,
    and each received message by position.  Such a part parses without
    error to an object equal to the one taken, so the snapshot, or the
    error, is the one the plain parse gives.
    """
    if not isinstance(record, dict):
        raise FormatError(f"expected an actor object, got {type(record).__name__}")
    kind = record.get("type")
    try:
        address = values.share(_text(record, "address"))
        if kind == "manager":
            return address, ManagerState(workflow_from_record(record["workflow"]))
        if kind == "selector":
            registry = Registry.from_candidates(
                candidate_from_record(item) for item in record["registry"]
            )
            return address, SelectorState(registry)
        if kind == "instance":
            old = before if isinstance(before, WsoInstance) else None
            request = record["request"]
            if old is not None and _same(request, before_record["request"]):
                request = old.request
            else:
                request = request_from_record(request, values)
            instance = WsoInstance(
                request=request,
                state=InstanceState(record["state"]),
                activities=_parse_shared(
                    record["activities"],
                    () if old is None else old.activities,
                    () if old is None else before_record["activities"],
                    lambda item: _activity_from_record(item, values),
                ),
                output_parameters=_params_value(record["output_parameters"], values),
            )
            return address, instance
        if kind == "client":
            old = before if isinstance(before, ClientRecord) else None
            return address, ClientRecord(
                client_id=values.share(record["client_id"]),
                received=_parse_shared(
                    record["received"],
                    () if old is None else old.received,
                    () if old is None else before_record["received"],
                    lambda item: message_from_record(item, values),
                ),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad actor record: {exc}") from exc
    raise FormatError(f"unknown actor type {kind!r}")


class _Memo:
    """What one write call made of each object it met, made once per
    object.  Configurations share their unchanged actors, instances their
    unchanged request and activities, and channels and clients their
    messages, so one object stands in many places.  Entries are keyed by
    identity and hold their object, so no id is reused while the memo
    lives."""

    def __init__(self) -> None:
        self._made: dict[int, tuple] = {}

    def of(self, value, make):
        entry = self._made.get(id(value))
        if entry is None:
            entry = self._made[id(value)] = (value, make(value))
        return entry[1]


def config_to_record(
    config: Configuration, actor_record=actor_to_record, message_record=message_to_record
) -> dict:
    return {
        "actors": [actor_record(address, snapshot) for address, snapshot in config.actors],
        "undelivered": [message_record(m) for m in config.undelivered],
    }


def config_from_record(record: dict, values: _Reading = _PLAIN) -> Configuration:
    try:
        actors = tuple(actor_from_record(item, values=values) for item in record["actors"])
        pool = tuple(message_from_record(item, values) for item in record["undelivered"])
        return Configuration(actors=actors, undelivered=pool)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad configuration record: {exc}") from exc


# ---------------------------------------------------------------------------
# Traces
#
# A trace serializes as a trace record carrying the initial configuration,
# followed by one transition record per step.  Transition records are deltas:
# target configurations are reassembled by Configuration.advance, the same
# step the engine takes.

def _consumed(config: Configuration, record, values: _Reading = _PLAIN) -> Message:
    """The message a `consumed` record names: the first message pending on
    its channel whose canonical record, as ``values`` gives it, it is the
    same as, else the record parsed."""
    if isinstance(record, dict):
        sender, receiver = record.get("sender"), record.get("receiver")
        if isinstance(sender, str) and isinstance(receiver, str):
            for message in config.channel(sender, receiver):
                if _same(record, values.pending_record(message)):
                    return message
    return message_from_record(record, values)


class _ReadMemo(_Reading):
    """What one read call keeps beside the traces it builds, so that it
    holds little more than the current configuration of the trace it reads:

    * one object per distinct string, params value and QoS value parsed,
      each shared only once its type is checked (a QoS value only for a pair
      of exact ints), so that every error is the one a plain parse raises;
    * per address, the canonical record of the snapshot now there, whose
      parts (an instance's request and activities, a client's received
      messages) are taken from the address's previous record where they are
      the same objects;
    * the records of pending messages that :func:`_consumed` compared, each
      dropped when its message is consumed.

    So each request, activity and message record is built once per object,
    unless traces of one file interleave at an address."""

    def __init__(self) -> None:
        self._values: dict = {}
        self._qos: dict[tuple[int, int], QoSSpec] = {}
        self._latest: dict[str, tuple] = {}  # address -> (snapshot, its record)
        self._pending: dict[int, tuple[Message, dict]] = {}  # by id, holding the message

    def share(self, value):
        if type(value) is str or type(value) is tuple:
            return self._values.setdefault(value, value)
        return value

    def qos(self, record: dict) -> QoSSpec:
        pair = record["response_time_ms"], record["cost_cents"]
        if type(pair[0]) is not int or type(pair[1]) is not int:
            return QoSSpec(*pair)
        spec = self._qos.get(pair)
        if spec is None:
            spec = self._qos[pair] = QoSSpec(*pair)
        return spec

    def pending_record(self, message: Message) -> dict:
        entry = self._pending.get(id(message))
        if entry is None:
            entry = self._pending[id(message)] = (message, message_to_record(message))
        return entry[1]

    def consume(self, message: Message) -> None:
        self._pending.pop(id(message), None)

    def actor_record(self, address: str, snapshot) -> dict:
        """The canonical record of the snapshot at address, which it
        records as the snapshot now there."""
        entry = self._latest.get(address)
        if entry is not None and entry[0] is snapshot:
            return entry[1]
        parts = {} if entry is None else _part_records(*entry)
        record = actor_to_record(
            address, snapshot, lambda part, to_record: parts.get(id(part)) or to_record(part)
        )
        self._latest[address] = (snapshot, record)
        return record

    def remove(self, address: str) -> None:
        self._latest.pop(address, None)


def _part_records(snapshot, record: dict) -> dict[int, dict]:
    """The id of each part of a snapshot, mapped to its record within the
    snapshot's canonical record."""
    if isinstance(snapshot, WsoInstance):
        parts = zip(
            (snapshot.request, *snapshot.activities), (record["request"], *record["activities"])
        )
    elif isinstance(snapshot, ClientRecord):
        parts = zip(snapshot.received, record["received"])
    else:
        return {}
    return {id(part): part_record for part, part_record in parts}


def _apply_transition_record(config: Configuration, record: dict, memo: _ReadMemo) -> Transition:
    consumed = _consumed(config, record["consumed"], memo)
    memo.consume(consumed)
    emitted = tuple(message_from_record(item, memo) for item in record["emitted"])
    rule = RuleId(record["rule"])
    changed: dict[str, object] = {}  # address -> snapshot, None when removed
    for change in record["changed"]:
        address = memo.share(_text(change, "address"))
        prior = config.actor(address)
        canonical = None if prior is None else memo.actor_record(address, prior)
        if change["before"] != canonical:
            raise FormatError(
                f"changed actor {address!r}: 'before' differs from the source's snapshot"
            )
        if change["after"] is None:
            changed[address] = None
            memo.remove(address)
            continue
        after_address, after = actor_from_record(change["after"], prior, canonical, memo)
        if after_address != address:
            raise FormatError(f"changed actor {address!r}: 'after' is at {after_address!r}")
        changed[address] = after
        memo.actor_record(address, after)
    target = config.advance(consumed, changed, emitted)
    return Transition(source=config, rule=rule, message=consumed, target=target, emitted=emitted)


def _reassemble(numbered: Iterable[tuple[int, dict]], path: str | Path) -> list[Trace]:
    """Reassemble traces from (line, record) pairs, applying each transition
    record as it arrives; an error names the path and the line of the record
    at fault.

    Only transition records that arrive before their predecessor are held
    back, so a file in any order reads, at the memory cost of its disorder.
    A file with one fault gets the error it would get if the records of each
    trace were read in index order.  The trace indices must run from 0, so
    that a violation names a trace by the index the file gives it.
    """

    def error(line: int, text: str) -> FormatError:
        return FormatError(f"{path}:{line}: {text}")

    def trace_index(line: int, record: dict) -> int:
        index = record.get("trace", 0)
        if not isinstance(index, int) or isinstance(index, bool):
            where = "trace record"
            if record["record"] == "transition":
                where = f"transition {record.get('index')!r}"
            raise error(line, f"{where}: trace index {index!r} is not an integer")
        return index

    memo = _ReadMemo()
    # trace index -> (line, initial, steps so far, held records by transition index)
    by_trace: dict[int, tuple[int, Configuration, list[Transition], dict[int, tuple]]] = {}
    for line, record in numbered:
        if record["record"] == "trace":
            index = trace_index(line, record)
            if index in by_trace:
                raise error(line, f"duplicate trace record {index}")
            if "initial" not in record:
                raise error(line, f"trace {index}: trace record without an initial configuration")
            try:
                by_trace[index] = (line, config_from_record(record["initial"], memo), [], {})
            except FormatError as exc:
                raise error(line, f"trace {index}: {exc}") from exc
        elif record["record"] == "transition":
            index = trace_index(line, record)
            if index not in by_trace:
                raise error(line, f"transition for unknown trace {index}")
            position = record.get("index")
            if not isinstance(position, int) or isinstance(position, bool):
                raise error(line, f"trace {index}: transition record without an integer index")
            _, initial, steps, held = by_trace[index]
            if position < len(steps) or position in held:
                # In index order a repeated index follows its first copy.
                expected = position + 1 if position >= 0 else 0
                raise error(line, f"trace {index}: expected transition {expected}, got {position}")
            held[position] = (line, record)
            while len(steps) in held:
                next_line, next_record = held.pop(len(steps))
                config = steps[-1].target if steps else initial
                try:
                    steps.append(_apply_transition_record(config, next_record, memo))
                except (KeyError, TypeError, ValueError) as exc:
                    raise error(next_line, f"trace {index}, transition {len(steps)}: {exc}") from exc

    traces = []
    for index in sorted(by_trace):
        line, initial, steps, held = by_trace[index]
        if index != len(traces):
            raise error(line, f"expected trace {len(traces)}, got {index}")
        if held:
            first = min(held)
            raise error(
                held[first][0], f"trace {index}: expected transition {len(steps)}, got {first}"
            )
        traces.append(Trace(initial=initial, steps=tuple(steps)))
    return traces


def _object(**texts: str) -> str:
    """The JSON text of an object, from the JSON text of each value, as
    json.dumps with sorted keys writes it; each key is an ASCII identifier,
    so it needs no escape."""
    return "{" + ", ".join(['"' + key + '": ' + texts[key] for key in sorted(texts)]) + "}"


def _array(texts: Iterable[str]) -> str:
    return "[" + ", ".join(texts) + "]"


# A placeholder that no encoded text holds: the encoder escapes every control
# character.
_SLOT = "\0"


class _TextMemo(_Memo):
    """The JSON texts of one write call.  Each activity, request and
    message object is encoded once, and so is each initial configuration
    and each transition kept by the caller.  Per address, the latest
    snapshot is kept with its text, so the ``before`` of a change reuses
    the text of the ``after`` that the actor's previous change wrote, and
    memory stays bounded by the address count and the parts."""

    def __init__(self) -> None:
        super().__init__()
        self._latest: dict = {}

    def part(self, value, to_record) -> str:
        return self.of(value, lambda part: _encode(to_record(part)))

    def message(self, message: Message) -> str:
        return self.part(message, message_to_record)

    def actor(self, address: str, snapshot) -> str:
        if snapshot is None:
            return "null"
        entry = self._latest.get(address)
        if entry is None or entry[0] is not snapshot:
            entry = self._latest[address] = (snapshot, self._actor_text(address, snapshot))
        return entry[1]

    def _actor_text(self, address: str, snapshot) -> str:
        # The fields of actor_to_record, each part's text taken from the memo.
        if isinstance(snapshot, WsoInstance):
            return _object(
                activities=_array(self.part(aa, _activity_record) for aa in snapshot.activities),
                address=_encode(address),
                output_parameters=_encode(_params_record(snapshot.output_parameters)),
                request=self.part(snapshot.request, request_to_record),
                state=_encode(snapshot.state.value),
                type='"instance"',
            )
        if isinstance(snapshot, ClientRecord):
            return _object(
                address=_encode(address),
                client_id=_encode(snapshot.client_id),
                received=_array(map(self.message, snapshot.received)),
                type='"client"',
            )
        return _encode(actor_to_record(address, snapshot))

    def initial(self, config: Configuration) -> str:
        return self.of(config, self._initial)

    def _initial(self, config: Configuration) -> str:
        # The layout of config_to_record, each value an array of texts.
        texts = config_to_record(config, self.actor, self.message)
        return _object(**{key: _array(items) for key, items in texts.items()})

    def transition(self, transition: Transition) -> list[str]:
        """The text of a transition's record, split where the record's index
        and trace index go."""
        changed = [
            # `before` is looked up first: it is the text the address holds.
            _object(
                address=_encode(address),
                before=self.actor(address, before),
                after=self.actor(address, after),
            )
            for address, before, after in transition.source.changes(transition.target)
        ]
        return _object(
            changed=_array(changed),
            consumed=self.message(transition.message),
            emitted=_array(map(self.message, transition.emitted)),
            index=_SLOT,
            record='"transition"',
            rule=_encode(transition.rule.value),
            trace=_SLOT,
        ).split(_SLOT)


def write_traces(traces: Sequence[Trace], path: str | Path) -> None:
    """Write traces one record per line, each line joined from the texts of
    one memo (:class:`_TextMemo`).  A transition that several traces share
    is encoded once per call, and so is an initial configuration; only
    their placement differs.  A transition of one trace only is not kept."""
    uses = Counter(id(transition) for trace in traces for transition in trace.steps)
    texts = _TextMemo()
    with Path(path).open("w", encoding="utf-8") as out:
        for trace_index, trace in enumerate(traces):
            # The encoder writes an int as str does.
            place = str(trace_index)
            initial = texts.initial(trace.initial)
            out.write(_object(initial=initial, record='"trace"', trace=place) + "\n")
            for index, transition in enumerate(trace.steps):
                if uses[id(transition)] > 1:
                    head, middle, tail = texts.of(transition, texts.transition)
                else:
                    head, middle, tail = texts.transition(transition)
                out.write(head + str(index) + middle + place + tail + "\n")


def read_traces(path: str | Path) -> list[Trace]:
    return _reassemble(_read_records(path), path)


# ---------------------------------------------------------------------------
# Violations

def violation_to_record(violation: Violation) -> dict:
    return {
        "record": "violation",
        "property": violation.property_id,
        "trace": violation.trace_index,
        "transition": violation.transition_index,
        "witness": violation.witness,
    }


def append_violations(violations: Sequence[Violation], path: str | Path) -> None:
    lines = [_encode(violation_to_record(v)) for v in violations]
    with open(path, "a", encoding="utf-8") as handle:
        handle.writelines(line + "\n" for line in lines)
