import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import support
from qosorch import cli, engine, formats
from qosorch.model import MessageKind, RuleId

from test_mutants import r7_drops_result, swapped

GOLDEN_FILE = Path(__file__).parent / "golden" / "bookstore_seed0.jsonl"
GOLDEN_RECORDS = [json.loads(line) for line in GOLDEN_FILE.read_text().splitlines()]


def _paths(value, prefix=()):
    """Key paths to every value nested inside a JSON object or list."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


# (line, key path) of every value in the golden trace file; list entries are
# the paths ending in an integer index.
GOLDEN_PATHS = [
    (line, path) for line, record in enumerate(GOLDEN_RECORDS) for path in _paths(record)
]
LIST_ENTRY_PATHS = [(line, path) for line, path in GOLDEN_PATHS if isinstance(path[-1], int)]
JSON_VALUES = [None, 0, -1, 2.5, True, "x", [], {}, [0], {"k": "v"}]

MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(GOLDEN_PATHS), st.just("delete"), st.none()),
    st.tuples(st.sampled_from(GOLDEN_PATHS), st.just("replace"), st.sampled_from(JSON_VALUES)),
    st.tuples(st.sampled_from(LIST_ENTRY_PATHS), st.just("duplicate"), st.none()),
)

# Malformed records that once crashed or passed `check`, each with where its
# error is reported.  Record 0 (line 1) is the trace record; record 3 (line 4)
# is transition 2, whose first changed actor is the client record "ca:c1".
MALFORMED = {
    "trace-index-not-an-integer": (((3, ("trace",)), "replace", [0]), "transition 2: "),
    # Booleans are ints in Python, but false is not trace 0 nor true transition 1.
    "trace-index-a-boolean": (((3, ("trace",)), "replace", False), "transition 2: "),
    "transition-index-a-boolean": (((2, ("index",)), "replace", True), "trace 0: "),
    "duplicated-initial-actor": (((0, ("initial", "actors", 0)), "duplicate", None), "trace 0: "),
    "missing-initial": (((0, ("initial",)), "delete", None), "trace 0: "),
    "initial-actor-not-an-object": (((0, ("initial", "actors", 0)), "replace", 5), "trace 0: "),
    "changed-after-not-an-object": (
        ((3, ("changed", 0, "after")), "replace", 5),
        "trace 0, transition 2: ",
    ),
    "changed-before-not-an-object": (
        ((3, ("changed", 0, "before")), "replace", 5),
        "trace 0, transition 2: ",
    ),
    "changed-before-null-for-a-present-actor": (
        ((3, ("changed", 0, "before")), "replace", None),
        "trace 0, transition 2: ",
    ),
    "changed-before-at-another-address": (
        ((3, ("changed", 0, "before", "address")), "replace", "x"),
        "trace 0, transition 2: ",
    ),
    "changed-after-at-another-address": (
        ((3, ("changed", 0, "after", "address")), "replace", "x"),
        "trace 0, transition 2: ",
    ),
    # Well-formed, but the instance is Waiting in the running configuration.
    "changed-before-content-differs": (
        ((3, ("changed", 1, "before", "state")), "replace", "Completed"),
        "trace 0, transition 2: ",
    ),
}


# Well-formed records whose content once crashed `check`, each with the
# violation it must report instead (exit 4): a seeded request with no QoS
# budget, and the first invoke (record 3, transition 2) sent to a bare role
# prefix.
BAD_CONTENT = {
    "seeded-request-without-qos": (
        ((0, ("initial", "undelivered", 0, "qos")), "delete", None),
        "violation grant-feasibility",
    ),
    "invoke-to-a-bare-role-prefix": (
        ((3, ("emitted", 1, "receiver")), "replace", "aa"),
        "violation message-vocabulary",
    ),
    # Line 34 is the last transition, R4a: the completed instance's final
    # snapshot keeps no activity to aggregate.
    "completed-instance-without-activities": (
        ((33, ("changed", 1, "after", "activities")), "replace", []),
        "violation grant-feasibility trace=0: accepted instance 'c1' has no activities",
    ),
}


# Edits of every registry candidate in the golden trace's initial
# configuration; the golden run's grants must match the registry.
REGISTRY_EDITS = {
    "unmodified": None,
    "every-candidate-slow-and-expensive": lambda c: c.update(response_time_ms=9999, cost_cents=1000),
    "candidate-ids-renamed": lambda c: c.update(candidate_id="renamed-" + c["candidate_id"]),
}


def write_mutated_golden(path, mutation):
    (line, key_path), operation, value = mutation
    records = copy.deepcopy(GOLDEN_RECORDS)
    parent = records[line]
    for key in key_path[:-1]:
        parent = parent[key]
    key = key_path[-1]
    if operation == "delete":
        del parent[key]
    elif operation == "duplicate":
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = copy.deepcopy(value)
    lines = [json.dumps(record, sort_keys=True) for record in records]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def invoke(argv):
    return cli.main(argv)


@pytest.fixture()
def bookstore_args(fixtures_dir):
    def build(requests_file, *extra):
        return [
            "--workflow", str(fixtures_dir / "bookstore_workflow.jsonl"),
            "--registry", str(fixtures_dir / "bookstore_registry.jsonl"),
            "--requests", str(fixtures_dir / requests_file),
            *extra,
        ]

    return build


class TestUsage:
    """Usage errors and invalid bounds are input errors, not engine errors."""

    def exit_code(self, argv):
        with pytest.raises(SystemExit) as raised:
            invoke(argv)
        return raised.value.code

    def test_missing_argument_exits_one(self, capsys):
        assert self.exit_code(["run", "--workflow", "X"]) == cli.EXIT_INPUT
        assert "required: --registry, --requests" in capsys.readouterr().err

    def test_non_positive_transition_bound_exits_one(self, bookstore_args, capsys):
        argv = bookstore_args("bookstore_requests_feasible.jsonl", "--max-transitions", "0")
        assert self.exit_code(["explore", *argv]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "--max-transitions: must be positive, got 0" in err
        assert "engine error" not in err

    @pytest.mark.parametrize("bound", ["0", "-5"])
    def test_non_positive_trace_bound_exits_one(self, bound, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "traces.jsonl"
        argv = TestExplore.args(
            fixtures_dir, "minimal", "minimal_requests_one.jsonl",
            "--max-traces", bound, "--trace-out", str(out),
        )
        assert self.exit_code(argv) == cli.EXIT_INPUT
        assert f"--max-traces: must be positive, got {bound}" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert self.exit_code(["explore", "--help"]) == cli.EXIT_OK
        assert "--max-transitions" in capsys.readouterr().out


class TestRun:
    def test_feasible_run_reports_completion(self, bookstore_args, capsys, tmp_path):
        out = tmp_path / "trace.jsonl"
        code = invoke(["run", *bookstore_args("bookstore_requests_feasible.jsonl"),
                       "--seed", "0", "--trace-out", str(out)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_OK
        assert "c1: Completed qos=(200ms<=250ms, 18c<=20c)" in captured.out
        assert out.exists()

    def test_infeasible_run_reports_denial(self, bookstore_args, capsys):
        code = invoke(["run", *bookstore_args("bookstore_requests_infeasible.jsonl")])
        captured = capsys.readouterr()
        assert code == cli.EXIT_OK
        assert "c1: Denied" in captured.out

    def test_missing_registry_names_the_path(self, fixtures_dir, capsys):
        code = invoke([
            "run",
            "--workflow", str(fixtures_dir / "bookstore_workflow.jsonl"),
            "--registry", "/no/such/registry.jsonl",
            "--requests", str(fixtures_dir / "bookstore_requests_feasible.jsonl"),
        ])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT
        assert "/no/such/registry.jsonl" in captured.err


class TestExplore:
    def test_minimal_fixture_explores_and_passes(self, fixtures_dir, capsys):
        code = invoke([
            "explore",
            "--workflow", str(fixtures_dir / "minimal_workflow.jsonl"),
            "--registry", str(fixtures_dir / "minimal_registry.jsonl"),
            "--requests", str(fixtures_dir / "minimal_requests_one.jsonl"),
        ])
        captured = capsys.readouterr()
        assert code == cli.EXIT_OK
        assert "traces: 3" in captured.out
        for layer in ("behavior", "system", "service"):
            assert f"{layer}: pass" in captured.out

    @staticmethod
    def args(fixtures_dir, name, requests_file, *extra):
        return [
            "explore",
            "--workflow", str(fixtures_dir / f"{name}_workflow.jsonl"),
            "--registry", str(fixtures_dir / f"{name}_registry.jsonl"),
            "--requests", str(fixtures_dir / requests_file),
            *extra,
        ]

    def test_trace_bound_applies_only_to_listed_traces(self, fixtures_dir, tmp_path, capsys):
        argv = self.args(fixtures_dir, "pair", "pair_requests_one.jsonl", "--max-traces", "100")
        assert invoke(argv) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "traces: 2268", "behavior: pass", "system: pass", "service: pass"
        ]
        out = tmp_path / "traces.jsonl"
        assert invoke([*argv, "--trace-out", str(out)]) == cli.EXIT_BOUND
        assert "more than 100 maximal traces" in capsys.readouterr().err
        assert not out.exists()

    def test_mixed_fixture_passes_without_listing_its_traces(self, fixtures_dir, capsys):
        assert invoke(self.args(fixtures_dir, "pair", "pair_requests_mixed.jsonl")) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "traces: 1270080", "behavior: pass", "system: pass", "service: pass"
        ]

    def test_violations_over_the_trace_bound_exit_three(self, fixtures_dir, monkeypatch, capsys):
        monkeypatch.setattr(engine, "default_selector", support.always_deny_selector)
        argv = self.args(fixtures_dir, "minimal", "minimal_requests_two.jsonl")
        assert invoke([*argv, "--max-traces", "20"]) == cli.EXIT_VIOLATION
        captured = capsys.readouterr()
        assert "traces: 20" in captured.out and "service: fail" in captured.out
        assert captured.err.count("violation denial-oracle") == 20
        assert invoke([*argv, "--max-traces", "19"]) == cli.EXIT_BOUND
        captured = capsys.readouterr()
        assert captured.out == "" and "more than 19 maximal traces" in captured.err

    @pytest.mark.parametrize("deny", [False, True])
    def test_written_traces_check_as_explored(
        self, deny, fixtures_dir, tmp_path, monkeypatch, capsys
    ):
        if deny:
            monkeypatch.setattr(engine, "default_selector", support.always_deny_selector)
        out = tmp_path / "explored.jsonl"
        argv = self.args(
            fixtures_dir, "minimal", "minimal_requests_one.jsonl", "--trace-out", str(out)
        )
        expected = cli.EXIT_VIOLATION if deny else cli.EXIT_OK
        assert invoke(argv) == expected
        explored = capsys.readouterr().err
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert sum(r["record"] == "violation" for r in records) == (2 if deny else 0)
        assert invoke(["check", str(out)]) == expected
        assert capsys.readouterr().err == explored

    def test_tight_bound_exits_three(self, bookstore_args, capsys):
        code = invoke([
            "explore",
            *bookstore_args("bookstore_requests_feasible.jsonl"),
            "--max-transitions", "1",
        ])
        assert code == cli.EXIT_BOUND
        assert "state-space limit" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["run", "explore"])
def test_unwritable_trace_out_exits_one(command, target, fixtures_dir, tmp_path, capsys):
    out = tmp_path / "missing" / "x.jsonl" if target == "missing-directory" else tmp_path
    argv = TestExplore.args(
        fixtures_dir, "minimal", "minimal_requests_one.jsonl", "--trace-out", str(out)
    )
    assert invoke([command, *argv[1:]]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: cannot write: ")
    assert "Traceback" not in err


BOOKSTORE_INPUTS = {
    "workflow": "bookstore_workflow.jsonl",
    "registry": "bookstore_registry.jsonl",
    "requests": "bookstore_requests_feasible.jsonl",
}


def edited_inputs(fixtures_dir, tmp_path, name, edit):
    """The bookstore input options, with the named file replaced by its
    fixture lines as `edit` rewrites them; also the replaced file's path."""
    paths = {key: fixtures_dir / file for key, file in BOOKSTORE_INPUTS.items()}
    edited = tmp_path / BOOKSTORE_INPUTS[name]
    lines = edit(paths[name].read_text().splitlines())
    edited.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    paths[name] = edited
    return [arg for key, path in paths.items() for arg in (f"--{key}", str(path))], edited


# Files that each load but do not fit together: which file the error names,
# how its fixture lines are edited, and what the error mentions.
MISFITS = {
    "registry-without-a-workflow-ontology": (
        "registry",
        lambda lines: [line for line in lines if '"Payment"' not in line],
        ("'Payment'", "'Get Pays'"),
    ),
    "duplicated-client-id": ("requests", lambda lines: lines + lines, ("client ids",)),
    "request-for-another-ontology": (
        "requests",
        lambda lines: [line.replace('"BookStore"', '"ToyStore"') for line in lines],
        ("'ToyStore'", "'BookStore'"),
    ),
}


@pytest.mark.parametrize("case", sorted(MISFITS))
@pytest.mark.parametrize("command", ["run", "explore"])
def test_inputs_that_do_not_fit_together_are_an_input_error(
    command, case, fixtures_dir, tmp_path, capsys
):
    name, edit, mentions = MISFITS[case]
    argv, edited = edited_inputs(fixtures_dir, tmp_path, name, edit)
    code = invoke([command, *argv])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT
    assert err.startswith(f"error: {edited}: ")
    assert all(mention in err for mention in mentions)


def _without_qos(line):
    record = json.loads(line)
    del record["qos"]
    return json.dumps(record | {"client_id": "c2"}, sort_keys=True)


# Records a workflow or requests file rejects at line 2, after its one good
# record: which file, the record, and the error after the file and line.
BAD_RECORDS = {
    "request-of-another-kind": (
        "requests", lambda line: '{"record": "reqest"}', "expected a request record, got 'reqest'"
    ),
    "request-without-qos": ("requests", _without_qos, "bad request record: 'qos'"),
    "workflow-of-another-kind": (
        "workflow",
        lambda line: '{"record": "candidate"}',
        "expected a workflow record, got 'candidate'",
    ),
    "workflow-without-activities": (
        "workflow",
        lambda line: '{"ontology": "BookStore", "record": "workflow"}',
        "bad workflow record: 'activities'",
    ),
    "workflow-twice": (
        "workflow", lambda line: line, "expected exactly one workflow record, got 2"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_bad_record_is_an_input_error_naming_its_line(case, fixtures_dir, tmp_path, capsys):
    name, bad, message = BAD_RECORDS[case]
    argv, edited = edited_inputs(
        fixtures_dir, tmp_path, name, lambda lines: [*lines, bad(lines[0])]
    )
    assert invoke(["run", *argv]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {edited}:2: {message}\n"


def test_a_repeated_candidate_id_is_an_input_error_naming_its_line(
    fixtures_dir, tmp_path, capsys
):
    argv, edited = edited_inputs(
        fixtures_dir, tmp_path, "registry", lambda lines: [lines[0], *lines]
    )
    candidate_id = json.loads(edited.read_text().splitlines()[0])["candidate_id"]
    assert invoke(["run", *argv]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {edited}:2: duplicate candidate_id {candidate_id!r}\n"


class TestCheck:
    def write_run_trace(self, bookstore_args, tmp_path, requests_file):
        out = tmp_path / "trace.jsonl"
        code = invoke(["run", *bookstore_args(requests_file), "--seed", "1",
                       "--trace-out", str(out)])
        assert code == cli.EXIT_OK
        return out

    def test_round_trip_is_conformant(self, bookstore_args, tmp_path, capsys):
        out = self.write_run_trace(bookstore_args, tmp_path, "bookstore_requests_feasible.jsonl")
        code = invoke(["check", str(out)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_OK
        assert "conformant" in captured.out

    def test_edited_state_field_is_a_violation(self, bookstore_args, tmp_path, capsys):
        out = self.write_run_trace(bookstore_args, tmp_path, "bookstore_requests_feasible.jsonl")
        records = [json.loads(line) for line in out.read_text().splitlines()]
        for record in records:
            if record["record"] == "transition" and record["rule"] == "R2b_SelectGranted":
                for change in record["changed"]:
                    after = change["after"]
                    if after and after.get("type") == "instance":
                        after["state"] = "Servicing"
        support.restate_befores(records)
        edited = [json.dumps(record, sort_keys=True) for record in records]
        out.write_text("".join(line + "\n" for line in edited), encoding="utf-8")

        code = invoke(["check", str(out)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VIOLATION
        assert "transition=" in captured.err

    def test_an_inherited_fault_is_reported_once(self, tmp_path, capsys):
        """A client record relabelled from the start is replaced with each
        reply it receives; the fault is reported where it first appears."""
        text = GOLDEN_FILE.read_text(encoding="utf-8")
        relabelled = text.replace('"client_id": "c1", "received"', '"client_id": "c9", "received"')
        # The initial record, and the before and after of each of two replies.
        assert relabelled.count('"client_id": "c9", "received"') == 5
        path = tmp_path / "relabelled.jsonl"
        path.write_text(relabelled, encoding="utf-8")

        assert invoke(["check", str(path)]) == cli.EXIT_VIOLATION
        assert capsys.readouterr().err.splitlines() == [
            "violation message-vocabulary trace=0: client record at 'ca:c1' labelled 'c9'"
        ]

    def test_unreadable_trace_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text("{broken\n", encoding="utf-8")
        assert invoke(["check", str(path)]) == cli.EXIT_INPUT

    def test_malformed_transition_record_exits_one(self, golden_dir, tmp_path, capsys):
        lines = (golden_dir / "bookstore_seed0.jsonl").read_text().splitlines()
        record = json.loads(lines[3])
        assert record["record"] == "transition"
        record["changed"] = 5
        lines[3] = json.dumps(record, sort_keys=True)
        path = tmp_path / "corrupted.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

        assert invoke(["check", str(path)]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err
        assert "trace 0, transition 2" in err

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_record_exits_one_naming_where(self, case, tmp_path, capsys):
        mutation, where = MALFORMED[case]
        (record, _), _, _ = mutation
        path = tmp_path / "malformed.jsonl"
        write_mutated_golden(path, mutation)
        assert invoke(["check", str(path)]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{record + 1}: {where}")

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mutation=MUTATIONS)
    @example(mutation=MALFORMED["trace-index-not-an-integer"][0])
    @example(mutation=MALFORMED["trace-index-a-boolean"][0])
    @example(mutation=MALFORMED["transition-index-a-boolean"][0])
    @example(mutation=MALFORMED["duplicated-initial-actor"][0])
    @example(mutation=MALFORMED["missing-initial"][0])
    @example(mutation=MALFORMED["initial-actor-not-an-object"][0])
    @example(mutation=MALFORMED["changed-after-not-an-object"][0])
    @example(mutation=MALFORMED["changed-before-not-an-object"][0])
    @example(mutation=MALFORMED["changed-before-null-for-a-present-actor"][0])
    @example(mutation=MALFORMED["changed-before-at-another-address"][0])
    @example(mutation=MALFORMED["changed-after-at-another-address"][0])
    @example(mutation=MALFORMED["changed-before-content-differs"][0])
    @example(mutation=BAD_CONTENT["seeded-request-without-qos"][0])
    @example(mutation=BAD_CONTENT["invoke-to-a-bare-role-prefix"][0])
    @example(mutation=BAD_CONTENT["completed-instance-without-activities"][0])
    def test_mutated_golden_trace_never_crashes(self, mutation, tmp_path):
        path = tmp_path / "mutated.jsonl"
        write_mutated_golden(path, mutation)
        assert invoke(["check", str(path)]) in (
            cli.EXIT_OK,
            cli.EXIT_INPUT,
            cli.EXIT_VIOLATION,
        )

    @pytest.mark.parametrize("case", sorted(BAD_CONTENT))
    def test_bad_content_is_a_violation(self, case, tmp_path, capsys):
        mutation, violation = BAD_CONTENT[case]
        path = tmp_path / "bad.jsonl"
        write_mutated_golden(path, mutation)
        assert invoke(["check", str(path)]) == cli.EXIT_VIOLATION
        assert violation in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(REGISTRY_EDITS))
    def test_grants_are_checked_against_the_registry(self, case, tmp_path, capsys):
        records = copy.deepcopy(GOLDEN_RECORDS)
        edit = REGISTRY_EDITS[case]
        for actor in records[0]["initial"]["actors"]:
            if actor["type"] == "selector" and edit is not None:
                for candidate in actor["registry"]:
                    edit(candidate)
        path = tmp_path / "registry.jsonl"
        path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8"
        )

        code = invoke(["check", str(path)])
        err = capsys.readouterr().err
        if edit is None:
            assert code == cli.EXIT_OK
        else:
            assert code == cli.EXIT_VIOLATION
            assert "violation grant-feasibility" in err

    def test_violations_name_the_trace_by_its_place_in_the_file(
        self, bookstore_feasible, bookstore_infeasible, tmp_path, capsys
    ):
        feasible = engine.run(
            bookstore_feasible.workflow, bookstore_feasible.registry, bookstore_feasible.requests, 0
        )
        over_budget = engine.run(
            bookstore_infeasible.workflow,
            bookstore_infeasible.registry,
            bookstore_infeasible.requests,
            0,
            selector=support.always_grant_selector,
        )
        path = tmp_path / "two.jsonl"
        formats.write_traces([feasible, over_budget], path)
        assert invoke(["check", str(path)]) == cli.EXIT_VIOLATION
        err = capsys.readouterr().err
        assert f"violation grant-feasibility trace=1 transition={len(over_budget) - 1}:" in err
        assert "trace=0" not in err

    def test_runs_from_different_initial_configurations_check_together(
        self, golden_dir, tmp_path, capsys
    ):
        golden = [golden_dir / f"bookstore{kind}_seed0.jsonl" for kind in ("", "_infeasible")]
        traces = [trace for path in golden for trace in formats.read_traces(path)]
        path = tmp_path / "both.jsonl"
        formats.write_traces(traces, path)
        assert invoke(["check", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr().out == "traces: 2\nconformant\n"

    def test_empty_trace_file_is_vacuously_ok(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        code = invoke(["check", str(path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_OK
        assert "vacuous" in captured.out


@pytest.mark.parametrize("command", ["run", "explore"])
def test_engine_error_exits_two_and_writes_no_trace(
    command, bookstore_args, tmp_path, monkeypatch, capsys
):
    """R7 dropping the service result leaves R4a unable to fire, so the
    instance ends Servicing and the engine stops (see test_mutants)."""
    monkeypatch.setitem(
        engine._RULES,
        MessageKind.INVOKE_REPLY,
        swapped(MessageKind.INVOKE_REPLY, RuleId.R7_AA_RETURN, applier=r7_drops_result),
    )
    out = tmp_path / "trace.jsonl"
    argv = [command, *bookstore_args("bookstore_requests_feasible.jsonl"), "--trace-out", str(out)]
    assert invoke(argv) == cli.EXIT_ENGINE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "engine error: run ended with instance 'c1' in Servicing\n"
    assert not out.exists()


def test_empty_requests_give_one_empty_trace_that_checks_conformant(
    bookstore_args, tmp_path, capsys
):
    requests = tmp_path / "requests.jsonl"
    requests.write_text("", encoding="utf-8")
    inputs = bookstore_args("bookstore_requests_feasible.jsonl")
    inputs[inputs.index("--requests") + 1] = str(requests)
    ran, explored = tmp_path / "run.jsonl", tmp_path / "explore.jsonl"
    assert invoke(["run", *inputs, "--trace-out", str(ran)]) == cli.EXIT_OK
    assert capsys.readouterr().out == ""
    assert invoke(["explore", *inputs, "--trace-out", str(explored)]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "traces: 1", "behavior: pass", "system: pass", "service: pass"
    ]
    assert explored.read_bytes() == ran.read_bytes()
    assert invoke(["check", str(explored)]) == cli.EXIT_OK
    assert capsys.readouterr().out == "traces: 1\nconformant\n"


class TestDeterminism:
    def test_equal_seeds_give_byte_identical_traces(self, bookstore_args, tmp_path, capsys):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        invoke(["run", *bookstore_args("bookstore_requests_feasible.jsonl"),
                "--seed", "42", "--trace-out", str(first)])
        invoke(["run", *bookstore_args("bookstore_requests_feasible.jsonl"),
                "--seed", "42", "--trace-out", str(second)])
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
