import copy
import dataclasses
import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from qosorch import cli, engine, formats
from qosorch.conformance import Violation, check_behavior
from qosorch.model import (
    ClientRecord,
    Configuration,
    MessageKind,
    QoSSpec,
    Trace,
    Transition,
    WsoInstance,
    WsoRequest,
    client_address,
    instance_address,
)
from qosorch.registry import RegistryError, load_registry

from test_model import sample_message


class TestMessageRecords:
    @pytest.mark.parametrize("kind", list(MessageKind))
    def test_round_trip(self, kind):
        message = sample_message(kind)
        record = formats.message_to_record(message)
        assert formats.message_from_record(record) == message
        # Absent payload fields are omitted rather than serialized as null.
        assert all(value is not None for value in record.values())

    def test_bad_record_rejected(self):
        with pytest.raises(formats.FormatError):
            formats.message_from_record({"kind": "nonsense"})


class TestWorkflowAndRequestFiles:
    def test_workflow_round_trip(self, tmp_path, bookstore_feasible):
        path = tmp_path / "wf.jsonl"
        formats.dump_workflow(bookstore_feasible.workflow, path)
        assert formats.load_workflow(path) == bookstore_feasible.workflow

    def test_workflow_file_must_hold_exactly_one_record(self, tmp_path):
        path = tmp_path / "wf.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(formats.FormatError):
            formats.load_workflow(path)

    def test_a_second_workflow_record_is_a_format_error_naming_its_line(
        self, tmp_path, bookstore_feasible
    ):
        path = tmp_path / "wf.jsonl"
        formats.dump_workflow(bookstore_feasible.workflow, path)
        path.write_text("\n" + path.read_text(encoding="utf-8") * 2, encoding="utf-8")
        with pytest.raises(
            formats.FormatError,
            match=f"^{re.escape(str(path))}:3: expected exactly one workflow record, got 2$",
        ):
            formats.load_workflow(path)

    def test_request_round_trip(self, tmp_path):
        requests = [
            WsoRequest("c1", "Shop", {"k": "v"}, QoSSpec(10, 2)),
            WsoRequest("c2", "Shop", {}, QoSSpec(7, 1)),
        ]
        path = tmp_path / "requests.jsonl"
        formats.dump_requests(requests, path)
        assert formats.load_requests(path) == requests

    def test_garbage_line_is_an_input_error(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text("not json at all\n", encoding="utf-8")
        with pytest.raises(formats.FormatError, match=":1:"):
            formats.load_requests(path)


class TestTraceFiles:
    def test_round_trip_reproduces_identical_configurations(self, tmp_path, pair_one):
        trace = engine.run(pair_one.workflow, pair_one.registry, pair_one.requests, seed=5)
        path = tmp_path / "trace.jsonl"
        formats.write_traces([trace], path)
        loaded = formats.read_traces(path)
        assert len(loaded) == 1
        assert loaded[0] == trace
        assert check_behavior(loaded).passed

    def test_multi_trace_files(self, tmp_path, minimal_one):
        traces = engine.explore(
            minimal_one.workflow, minimal_one.registry, minimal_one.requests, max_transitions=50
        )
        path = tmp_path / "traces.jsonl"
        formats.write_traces(traces, path)
        loaded = formats.read_traces(path)
        assert tuple(loaded) == tuple(traces)

    def test_empty_trace_serializes(self, tmp_path, minimal_one):
        trace = engine.run(minimal_one.workflow, minimal_one.registry, [], seed=0)
        path = tmp_path / "trace.jsonl"
        formats.write_traces([trace], path)
        assert formats.read_traces(path)[0] == trace

    def test_transition_indices_must_be_contiguous(self, tmp_path, minimal_one):
        trace = engine.run(minimal_one.workflow, minimal_one.registry, minimal_one.requests, seed=0)
        records = support.records_of([trace])
        records[1]["index"] = 5
        # Read in index order, line 7's transition 5 follows line 2's copy.
        with pytest.raises(formats.FormatError, match=":7: trace 0: expected transition 6, got 5"):
            support.read_records(records)

    @pytest.mark.parametrize("at", [0, 1])
    def test_record_without_a_kind_is_a_format_error(self, minimal_one, at):
        trace = engine.run(minimal_one.workflow, minimal_one.registry, minimal_one.requests, seed=0)
        records = support.records_of([trace])
        del records[at]["record"]
        with pytest.raises(formats.FormatError, match=f":{at + 1}: expected a record object"):
            support.read_records(records)

    def test_blank_lines_are_skipped(self, tmp_path, minimal_one):
        trace = engine.run(minimal_one.workflow, minimal_one.registry, minimal_one.requests, seed=0)
        lines = [json.dumps(record) for record in support.records_of([trace])]
        path = tmp_path / "blank.jsonl"
        path.write_text("\n" + "\n \n".join(lines) + "\n\n", encoding="utf-8")
        assert formats.read_traces(path) == [trace]

    def test_shared_transitions_write_the_bytes_of_their_records(self, tmp_path, minimal_two):
        traces = engine.explore(
            minimal_two.workflow, minimal_two.registry, minimal_two.requests, max_transitions=50
        )
        path = tmp_path / "traces.jsonl"
        formats.write_traces(traces, path)
        # Each trace written alone shares no transition with another.
        expected = [
            json.dumps(dict(record, trace=trace_index), sort_keys=True)
            for trace_index, trace in enumerate(traces)
            for record in support.records_of([trace])
        ]
        assert path.read_text(encoding="utf-8").splitlines() == expected

    def test_shuffled_transition_records_still_read(self, tmp_path, minimal_two):
        traces = engine.explore(
            minimal_two.workflow, minimal_two.registry, minimal_two.requests, max_transitions=50
        )[:5]
        records = support.records_of(traces)
        lines = []
        rng = random.Random(0)
        # The traces go last to first as well.
        for trace_index in reversed(range(len(traces))):
            header, *transitions = [r for r in records if r["trace"] == trace_index]
            rng.shuffle(transitions)
            lines += [json.dumps(record) for record in [header, *transitions]]
        path = tmp_path / "shuffled.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert formats.read_traces(path) == list(traces)

    def test_duplicated_transition_index_is_an_input_error(self, tmp_path, golden_dir, capsys):
        lines = (golden_dir / "bookstore_seed0.jsonl").read_text(encoding="utf-8").splitlines()
        # Line 4 is transition 2; its copy goes last, after transitions 3 onwards.
        path = tmp_path / "duplicated.jsonl"
        path.write_text("".join(line + "\n" for line in lines + [lines[3]]), encoding="utf-8")
        assert cli.main(["check", str(path)]) == 1
        assert f"{path}:{len(lines) + 1}: trace 0: expected transition 3, got 2" in capsys.readouterr().err

    # Trace indices in the file, and the one out of place with the index
    # expected in its stead.
    @pytest.mark.parametrize(
        "indices,got,expected",
        [((5,), 5, 0), ((0, 2), 2, 1), ((-1, 0), -1, 0), ((2, 1), 1, 0)],
        ids=["one-trace-numbered-5", "gap-at-1", "negative", "no-trace-0"],
    )
    def test_trace_indices_must_run_from_zero(
        self, indices, got, expected, tmp_path, minimal_one, capsys
    ):
        trace = engine.run(minimal_one.workflow, minimal_one.registry, minimal_one.requests, seed=0)
        lines = [
            json.dumps(dict(record, trace=indices[record["trace"]]))
            for record in support.records_of([trace] * len(indices))
        ]
        path = tmp_path / "gap.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert cli.main(["check", str(path)]) == 1
        line = 1 + indices.index(got) * (len(trace) + 1)
        err = capsys.readouterr().err
        assert err == f"error: {path}:{line}: expected trace {expected}, got {got}\n"

    def test_write_is_deterministic(self, tmp_path, minimal_one):
        trace = engine.run(minimal_one.workflow, minimal_one.registry, minimal_one.requests, seed=9)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        formats.write_traces([trace], a)
        formats.write_traces([trace], b)
        assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# The reader shares with the verified `before` what `after` repeats of it.

def outcome(parse, record, *prior):
    """What a parse of record gives: its result, or the FormatError text."""
    try:
        return "parsed", parse(record, *prior)
    except formats.FormatError as exc:
        return "error", str(exc)


def transition_cases(path):
    """(source configuration, transition record) for each transition record
    of a trace file, the source taken from the file as read."""
    traces = formats.read_traces(path)
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["record"] == "transition":
            yield traces[record["trace"]].steps[record["index"]].source, record


def actor_cases(path):
    """(after, prior snapshot, prior's record) for each changed entry of a
    trace file that sets an `after` where the source holds an actor."""
    for source, record in transition_cases(path):
        for change in record["changed"]:
            prior = source.actor(change["address"])
            if change["after"] is not None and prior is not None:
                yield change["after"], prior, formats.actor_to_record(change["address"], prior)


@pytest.fixture(scope="module")
def sharing_corpus(tmp_path_factory, golden_dir, minimal_two, pair_two_denied, pair_mixed):
    """The trace files the sharing reader is checked on: both golden traces,
    multi-client runs at several seeds, and the explored traces of two denied
    pair requests."""
    folder = tmp_path_factory.mktemp("sharing")
    paths = sorted(golden_dir.glob("*.jsonl"))
    for name, fixture_set in (
        ("minimal-two", minimal_two),
        ("pair-two-denied", pair_two_denied),
        ("pair-mixed", pair_mixed),
    ):
        for seed in range(4):
            trace = engine.run(fixture_set.workflow, fixture_set.registry, fixture_set.requests, seed)
            paths.append(folder / f"{name}-{seed}.jsonl")
            formats.write_traces([trace], paths[-1])
    explored = engine.explore(
        pair_two_denied.workflow,
        pair_two_denied.registry,
        pair_two_denied.requests,
        max_transitions=200,
    )
    paths.append(folder / "pair-two-denied-explored.jsonl")
    formats.write_traces(explored, paths[-1])
    return paths


def json_paths(value, prefix=()):
    """The path of every node of a JSON value, the value's own first."""
    yield prefix
    children = ()
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    for key, child in children:
        yield from json_paths(child, prefix + (key,))


# Replacements for a node: each JSON type, state names, and the values
# that equal an integer under == without being one.
REPLACEMENTS = [None, True, False, 0, 1, 1.0, 11.0, -1, "", "x", "Returned", "c1", [], {}, [{}]]


@st.composite
def mutated(draw, record):
    """A copy of record with one node deleted, duplicated, replaced by
    another JSON value, or, for an integer, by the float it equals."""
    record = copy.deepcopy(record)
    path = draw(st.sampled_from(list(json_paths(record))[1:]))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    operation = draw(st.sampled_from(["delete", "duplicate", "replace", "retype"]))
    if operation == "delete":
        del parent[key]
    elif operation == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    elif operation == "retype" and type(parent[key]) is int:
        parent[key] = float(parent[key])
    else:
        parent[key] = draw(st.sampled_from(REPLACEMENTS))
    return record


class TestSharingReader:
    def test_each_after_reads_as_its_plain_parse(self, sharing_corpus):
        shared = 0
        for path in sharing_corpus:
            for after, prior, canonical in actor_cases(path):
                kind, read = outcome(formats.actor_from_record, after, prior, canonical)
                assert (kind, read) == outcome(formats.actor_from_record, after)
                assert kind == "parsed"
                snapshot = read[1]
                # A part is shared exactly where its record repeats the prior's.
                parts = []
                if isinstance(snapshot, WsoInstance) and isinstance(prior, WsoInstance):
                    parts.append(
                        (snapshot.request, prior.request, after["request"], canonical["request"])
                    )
                    parts.extend(
                        zip(
                            snapshot.activities,
                            prior.activities,
                            after["activities"],
                            canonical["activities"],
                        )
                    )
                elif isinstance(snapshot, ClientRecord) and isinstance(prior, ClientRecord):
                    parts.extend(
                        zip(snapshot.received, prior.received, after["received"], canonical["received"])
                    )
                for new, old, record, old_record in parts:
                    assert (new is old) == (record == old_record)
                    shared += new is old
        assert shared > 300

    def test_each_consumed_message_is_the_pending_one_it_records(self, sharing_corpus):
        for path in sharing_corpus:
            for source, record in transition_cases(path):
                message = formats._consumed(source, record["consumed"])
                assert message == formats.message_from_record(record["consumed"])
                assert any(message is pending for pending in source.undelivered)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_mutated_after_reads_as_its_plain_parse(self, sharing_corpus, data):
        path = data.draw(st.sampled_from(sharing_corpus))
        after, prior, canonical = data.draw(st.sampled_from(list(actor_cases(path))))
        after = data.draw(mutated(after))
        assert outcome(formats.actor_from_record, after, prior, canonical) == outcome(
            formats.actor_from_record, after
        )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_a_mutated_consumed_message_reads_as_its_plain_parse(self, sharing_corpus, data):
        path = data.draw(st.sampled_from(sharing_corpus))
        source, record = data.draw(st.sampled_from(list(transition_cases(path))))
        consumed = data.draw(mutated(record["consumed"]))
        assert outcome(lambda r: formats._consumed(source, r), consumed) == outcome(
            formats.message_from_record, consumed
        )

    def test_each_part_record_is_built_once_per_read(self, bookstore_feasible, monkeypatch, tmp_path):
        """Count the record builds of each request, activity and message
        object while reading a 40-client run: a `before` or a pending
        message whose parts were recorded again makes a count exceed one."""
        requests = [
            dataclasses.replace(bookstore_feasible.requests[0], client_id=f"c{i:02d}")
            for i in range(40)
        ]
        trace = engine.run(bookstore_feasible.workflow, bookstore_feasible.registry, requests, 0)
        path = tmp_path / "trace.jsonl"
        formats.write_traces([trace], path)
        builds, built = Counter(), []

        def counted(build):
            def wrapper(value):
                builds[id(value)] += 1
                built.append(value)  # held, so that no id is reused
                return build(value)

            return wrapper

        for name in ("_activity_record", "request_to_record", "message_to_record"):
            monkeypatch.setattr(formats, name, counted(getattr(formats, name)))
        assert formats.read_traces(path) == [trace]
        assert len(builds) > 40 and max(builds.values()) == 1

    def test_write_read_write_is_byte_identical(self, sharing_corpus, tmp_path):
        for path in sharing_corpus:
            again = tmp_path / path.name
            formats.write_traces(formats.read_traces(path), again)
            assert again.read_bytes() == path.read_bytes(), path.name


# ---------------------------------------------------------------------------
# The writer joins pre-encoded texts; its lines are those of plain records.

class TestWriterBytes:
    def test_corpus_files_are_the_plain_lines(self, sharing_corpus):
        for path in sharing_corpus:
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines == support.plain_trace_lines(formats.read_traces(path)), path.name

    def test_explored_files_are_the_plain_lines(self, minimal_two, pair_one):
        for fixture_set in (minimal_two, pair_one):
            traces = engine.explore(
                fixture_set.workflow, fixture_set.registry, fixture_set.requests, max_transitions=200
            )[:300]
            assert support.written_lines(traces) == support.plain_trace_lines(traces)

    def test_a_removed_actor_and_several_replies_are_the_plain_lines(self, minimal_one):
        base = engine.run(minimal_one.workflow, minimal_one.registry, minimal_one.requests, seed=0)
        final, last = base.final, base.steps[-1]
        client_id = minimal_one.requests[0].client_id
        at_instance, at_client = instance_address(client_id), client_address(client_id)
        replies = tuple(step.message for step in base.steps[:3])
        client = final.actor(at_client)
        answered = dataclasses.replace(client, received=client.received + replies)
        # The instance goes and the client receives three more replies; then
        # the instance comes back as the same object and the client as it was.
        removed = Configuration(
            actors=tuple(
                (address, answered if address == at_client else snapshot)
                for address, snapshot in final.actors
                if address != at_instance
            )
        )
        restored = Configuration(actors=final.actors)
        forged = Trace(
            initial=base.initial,
            steps=base.steps
            + (
                Transition(final, last.rule, last.message, removed, replies),
                Transition(removed, last.rule, replies[0], restored),
            ),
        )
        traces = [forged, base, forged]
        lines = support.written_lines(traces)
        assert lines == support.plain_trace_lines(traces)
        removal, restoral = (
            {change["address"]: change for change in json.loads(line)["changed"]}
            for line in lines[len(forged) - 1 : len(forged) + 1]
        )
        assert removal[at_instance]["after"] is None
        assert len(removal[at_client]["after"]["received"]) == len(client.received) + 3
        assert restoral[at_instance]["before"] is None

    def test_each_part_and_snapshot_is_encoded_once(self, bookstore_feasible, monkeypatch, tmp_path):
        """Count the builds of each object's text and the encoder calls of
        one write: encoding a snapshot again for each line it appears in
        makes the counts exceed one per object."""
        requests = [
            dataclasses.replace(bookstore_feasible.requests[0], client_id=f"c{i:02d}")
            for i in range(40)
        ]
        trace = engine.run(bookstore_feasible.workflow, bookstore_feasible.registry, requests, 0)
        parts, snapshots = Counter(), Counter()
        encodes = 0

        def counted(build, counter):
            def wrapper(*args):
                counter[id(args[-1])] += 1
                return build(*args)

            return wrapper

        def encode(value):
            nonlocal encodes
            encodes += 1
            return original(value)

        original = formats._encode
        for name in ("_activity_record", "request_to_record", "message_to_record"):
            monkeypatch.setattr(formats, name, counted(getattr(formats, name), parts))
        actor_text = counted(formats._TextMemo._actor_text, snapshots)
        monkeypatch.setattr(formats._TextMemo, "_actor_text", actor_text)
        monkeypatch.setattr(formats, "_encode", encode)
        formats.write_traces([trace], tmp_path / "trace.jsonl")
        # A `before` that took no text from the `after` it repeats would
        # build that snapshot's text a second time.
        assert max(parts.values()) == 1 and max(snapshots.values()) == 1
        # Besides the parts: per snapshot at most three fields and the
        # address of its change, and per transition its rule.
        assert encodes <= sum(parts.values()) + 4 * len(snapshots) + len(trace)


# ---------------------------------------------------------------------------
# A file that is not UTF-8 is an input error naming the line.

LOADERS = {
    "workflow": formats.load_workflow,
    "registry": load_registry,
    "requests": formats.load_requests,
    "traces": formats.read_traces,
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_a_line_that_is_not_utf8_is_a_format_error_naming_it(kind, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\n\r\n{\"record\": \"\xff\xfe\"}\n")
    with pytest.raises((formats.FormatError, RegistryError), match=f"^{re.escape(str(path))}:3: not UTF-8: "):
        LOADERS[kind](path)


@pytest.mark.parametrize("option", ["--workflow", "--registry", None])
def test_a_file_that_is_not_utf8_exits_one(option, fixtures_dir, tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\xff\xfe{}\n")
    argv = ["check", str(path)]
    if option is not None:
        inputs = {
            "--workflow": fixtures_dir / "bookstore_workflow.jsonl",
            "--registry": fixtures_dir / "bookstore_registry.jsonl",
            "--requests": fixtures_dir / "bookstore_requests_feasible.jsonl",
        }
        inputs[option] = path
        argv = ["run", *(str(arg) for pair in inputs.items() for arg in pair)]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {path}:1: not UTF-8: ")


def test_violation_records():
    violation = Violation("state-monotonicity", 2, 7, "went backwards")
    record = formats.violation_to_record(violation)
    assert record == {
        "record": "violation",
        "property": "state-monotonicity",
        "trace": 2,
        "transition": 7,
        "witness": "went backwards",
    }
    assert json.loads(json.dumps(record)) == record
