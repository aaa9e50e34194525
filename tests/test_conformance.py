import collections
import copy
import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from qosorch import conformance, engine, formats
from qosorch.conformance import (
    P_CREATION_SNAPSHOT,
    P_DELIVERY_ORDER,
    P_DENIAL_ORACLE,
    P_DENIED_UNBOUND,
    P_GRANT_FEASIBILITY,
    P_GRANTED_PROGRESS,
    P_MESSAGE_VOCABULARY,
    P_PYRAMID_CHAIN,
    P_REPLY_DICHOTOMY,
    P_REQUEST_CONSTANCY,
    P_RULE_REPLAY,
    P_STATE_DOMAIN,
    P_STATE_MONOTONICITY,
    P_UNIQUE_CREATION,
    P_WAITING_PROGRESS,
    _oracle_feasible,
    check_behavior,
    check_pyramid,
    check_service,
    check_system,
)
from qosorch.model import (
    ActivityState,
    Configuration,
    InstanceState,
    MessageKind,
    QoSSpec,
    RuleId,
    SS_ADDRESS,
    Trace,
    Transition,
    WsBinding,
    WsoInstance,
    client_address,
    instance_address,
)
from qosorch.registry import Registry
from qosorch.selection import CandidateService

from test_engine import EXPLORED_FIXTURES


SELECTORS = {
    "default": None,
    "always-grant": support.always_grant_selector,
    "always-deny": support.always_deny_selector,
}


def properties(verdict):
    return {v.property_id for v in verdict.violations}


def reload_with_edit(trace, edit):
    """Serialize a trace, let `edit` rewrite the records, restate each
    `before` from the edited records, and reassemble."""
    records = support.records_of([trace])
    edit(records)
    support.restate_befores(records)
    return support.read_records(records)[0]


@pytest.fixture(scope="module")
def minimal_run(minimal_one):
    return engine.run(minimal_one.workflow, minimal_one.registry, minimal_one.requests, seed=3)


@pytest.fixture(scope="module")
def infeasible_run(bookstore_infeasible):
    return engine.run(
        bookstore_infeasible.workflow,
        bookstore_infeasible.registry,
        bookstore_infeasible.requests,
        seed=3,
    )


class TestBehavior:
    def test_engine_output_conforms(self, minimal_run, explored_corpora):
        assert check_behavior([minimal_run]).passed
        assert check_behavior(explored_corpora.sets["pair-2req-denied"]).passed

    def test_inverted_notify_direction_is_flagged(self, minimal_run):
        def invert_notify(records):
            for record in records:
                if record.get("rule") == RuleId.R7_AA_RETURN.value:
                    notify = record["emitted"][0]
                    notify["sender"], notify["receiver"] = (
                        notify["receiver"],
                        notify["sender"],
                    )
                    return
            raise AssertionError("no returning transition found")

        corrupted = reload_with_edit(minimal_run, invert_notify)
        verdict = check_behavior([corrupted])
        assert not verdict.passed
        assert P_MESSAGE_VOCABULARY in properties(verdict)
        assert any("sent by" in v.witness for v in verdict.violations)

    def test_edited_state_breaks_replay(self, minimal_run):
        def jump_state(records):
            for record in records:
                if record.get("rule") == RuleId.R2B_SELECT_GRANTED.value:
                    for change in record["changed"]:
                        after = change["after"]
                        if after and after.get("type") == "instance":
                            after["state"] = "Servicing"
                            return
            raise AssertionError("no grant transition found")

        corrupted = reload_with_edit(minimal_run, jump_state)
        verdict = check_behavior([corrupted])
        assert not verdict.passed
        assert P_RULE_REPLAY in properties(verdict)
        # The illegal Waiting -> Servicing move is a system-layer violation.
        system = check_system([corrupted])
        assert P_STATE_MONOTONICITY in properties(system)
        assert any(
            "Waiting -> Servicing" in v.witness for v in system.violations
        )


    def test_mislabelled_snapshot_is_reported_where_it_appears(self, minimal_two):
        trace = engine.run(
            minimal_two.workflow, minimal_two.registry, minimal_two.requests, seed=0
        )
        address = instance_address("c2")
        changing = [
            record["index"]
            for record in support.records_of([trace])
            if record["record"] == "transition"
            and any(change["address"] == address for change in record["changed"])
        ]
        last = changing[-1]
        assert last < len(trace) - 1  # later configurations still hold the snapshot

        def mislabel(records):
            for change in records[last + 1]["changed"]:
                if change["address"] == address:
                    change["after"]["request"]["client_id"] = "c9"

        verdict = check_behavior([reload_with_edit(trace, mislabel)])
        mislabelled = [v for v in verdict.violations if "labelled 'c9'" in v.witness]
        assert [v.transition_index for v in mislabelled] == [last]
        assert mislabelled[0].property_id == P_MESSAGE_VOCABULARY

    def test_removed_instance_leaves_its_pending_invoke_unresolvable(self, minimal_two):
        trace = engine.run(
            minimal_two.workflow, minimal_two.registry, minimal_two.requests, seed=0
        )
        records = support.records_of([trace])
        grant = next(r for r in records if r.get("rule") == RuleId.R2B_SELECT_GRANTED.value)
        invoke = next(m for m in grant["emitted"] if m["kind"] == "invoke")
        consume = next(r for r in records if r.get("consumed") == invoke)
        removal = consume["index"] - 1
        assert removal > grant["index"]  # the invoke is pending at the removal
        granted = next(c for c in grant["changed"] if c["address"] == instance_address("c1"))

        def remove_instance(records):
            records[removal + 1]["changed"].append(
                {"address": instance_address("c1"), "before": granted["after"], "after": None}
            )
            del records[removal + 2:]

        verdict = check_behavior([reload_with_edit(trace, remove_instance)])
        unresolvable = [v for v in verdict.violations if "unresolvable address" in v.witness]
        assert {v.transition_index for v in unresolvable} == {removal}
        assert {v.property_id for v in unresolvable} == {P_MESSAGE_VOCABULARY}
        assert any(repr(invoke["receiver"]) in v.witness for v in unresolvable)

    def test_dropped_binding_leaves_its_pending_service_call_unresolvable(self, minimal_run):
        records = support.records_of([minimal_run])
        call = next(r for r in records if r.get("rule") == RuleId.R6_AA_INVOKE.value)
        invoke_ws = next(m for m in call["emitted"] if m["kind"] == "invokeWs")
        consume = next(r for r in records if r.get("consumed") == invoke_ws)
        ack = next(r for r in records if r.get("rule") == RuleId.R3_INVOKE_ACK.value)
        assert call["index"] < ack["index"] < consume["index"]  # the call is pending at the ack

        def drop_binding(records):
            change = next(c for c in records[ack["index"] + 1]["changed"]
                          if c["address"] == instance_address("c1"))
            for aa in change["after"]["activities"]:
                aa["ws"] = {"endpoint": None, "advertised_qos": None}
            del records[ack["index"] + 2:]

        verdict = check_behavior([reload_with_edit(minimal_run, drop_binding)])
        unresolvable = [v for v in verdict.violations if "unresolvable address" in v.witness]
        assert [(v.transition_index, v.property_id) for v in unresolvable] == [
            (ack["index"], P_MESSAGE_VOCABULARY)
        ]
        assert repr(invoke_ws["receiver"]) in unresolvable[0].witness

    def test_message_to_an_unknown_activity_is_reported_where_it_is_emitted(self, minimal_run):
        records = support.records_of([minimal_run])
        grant = next(r for r in records if r.get("rule") == RuleId.R2B_SELECT_GRANTED.value)
        assert grant["index"] < len(minimal_run) - 1  # later configurations still hold it

        def stray_invoke(records):
            emitted = records[grant["index"] + 1]["emitted"]
            invoke = next(m for m in emitted if m["kind"] == "invoke")
            emitted.append(dict(invoke, receiver="aa:c1:nosuch"))

        verdict = check_behavior([reload_with_edit(minimal_run, stray_invoke)])
        unresolvable = [v for v in verdict.violations if "unresolvable address" in v.witness]
        assert [(v.transition_index, v.property_id) for v in unresolvable] == [
            (grant["index"], P_MESSAGE_VOCABULARY)
        ]
        assert "'aa:c1:nosuch'" in unresolvable[0].witness


def with_unread_outputs(instance):
    """instance given outputs that no rule reads: on the instance while it
    waits, on its activities while it is granted; else instance itself."""
    forged = (("forged", "x"),)
    if instance.state is InstanceState.WAITING:
        return dataclasses.replace(instance, output_parameters=forged)
    if instance.state is InstanceState.GRANTED:
        activities = tuple(
            dataclasses.replace(a, output_parameters=forged) for a in instance.activities
        )
        return dataclasses.replace(instance, activities=activities)
    return instance


def only_notes(source, transition):
    """(property, index, witness) of each behavior note on the trace of one
    transition from source."""
    verdict = check_behavior([Trace(source, (transition,))])
    return [(v.property_id, v.transition_index, v.witness) for v in verdict.violations]


class TestAcceptedTransitions:
    """A transition the relation accepts has its snapshots taken as built by
    its row, and its emitted messages still checked."""

    @pytest.mark.parametrize(
        "name, rules",
        [
            ("minimal_one", {RuleId.R2B_SELECT_GRANTED, RuleId.R6_AA_INVOKE}),
            ("pair_one", {RuleId.R2B_SELECT_GRANTED, RuleId.R6_AA_INVOKE}),
            ("pair_two_denied", {RuleId.R2A_SELECT_DENIED}),
        ],
    )
    def test_engine_stays_inside_the_relation_on_forged_sources(self, name, rules, request):
        """Every step the engine takes from a well-formed source is in the
        relation, also where the source holds fields that no rule reads."""
        fixture_set = request.getfixturevalue(name)
        graph = engine.explore_graph(
            fixture_set.workflow, fixture_set.registry, fixture_set.requests, 200
        )
        stepped = collections.Counter()
        for node in graph.edges:
            source = with_instance(node, with_unread_outputs)
            if source == node or not check_behavior([Trace(source)]).passed:
                continue
            for head in source.heads:
                try:
                    transition = engine.step(source, head)
                except engine.EngineError:
                    continue
                assert only_notes(source, transition) == [], transition.rule
                stepped[transition.rule] += 1
        assert rules <= stepped.keys(), stepped

    def test_a_select_to_a_missing_selector_is_reported(self, minimal_one):
        """R1 does not read the selector, so the relation accepts a creation
        whose selection request goes nowhere."""
        initial = engine.initial_configuration(
            minimal_one.workflow, minimal_one.registry, minimal_one.requests
        )
        actors = tuple((a, s) for a, s in initial.actors if a != SS_ADDRESS)
        source = Configuration(actors, initial.undelivered)
        assert check_behavior([Trace(source)]).passed
        creation = engine.step(source, source.heads[0])
        assert creation.rule is RuleId.R1_WSOIM_CREATE
        assert only_notes(source, creation) == [
            (P_MESSAGE_VOCABULARY, 0, "select references unresolvable address 'ss'")
        ]

    def test_a_call_of_an_unbound_service_is_reported(self, minimal_one):
        """R6 does not read the activity's binding, so the relation accepts
        an invocation whose service call goes nowhere."""
        graph = engine.explore_graph(
            minimal_one.workflow, minimal_one.registry, minimal_one.requests, 200
        )
        node, invoke = next(
            (node, m)
            for node in graph.edges
            for m in node.heads
            if m.kind is MessageKind.INVOKE
        )

        def unbound(instance):
            activities = tuple(dataclasses.replace(a, ws=WsBinding()) for a in instance.activities)
            return dataclasses.replace(instance, activities=activities)

        source = with_instance(node, unbound)
        assert next(source.instances())[1].state is InstanceState.GRANTED
        assert check_behavior([Trace(source)]).passed
        invocation = engine.step(source, invoke)
        assert invocation.rule is RuleId.R6_AA_INVOKE
        assert only_notes(source, invocation) == [
            (
                P_MESSAGE_VOCABULARY,
                0,
                "invokeWs references unresolvable address 'ws:c1:Echo Input'",
            )
        ]

    def test_a_notify_with_an_activity_lacking_outputs_fires_r4b(self, pair_one):
        """R4a needs every activity's outputs in the engine as in the
        relation, so a last notify where one Returned activity has none
        changes nothing (R4b), and the relation accepts that step."""
        graph = engine.explore_graph(pair_one.workflow, pair_one.registry, pair_one.requests, 200)
        node, notify = next(
            (node, m)
            for node in graph.edges
            for m in node.heads
            if engine.rule_for(node, m) is RuleId.R4A_NOTIFY_ALL_RETURNED
        )

        def first_without_outputs(instance):
            first = dataclasses.replace(instance.activities[0], output_parameters=None)
            return instance.with_activity(first)

        source = with_instance(node, first_without_outputs)
        assert next(source.instances())[1].activities[0].state is ActivityState.RETURNED
        assert engine.enabled(source) == [(notify, RuleId.R4B_NOTIFY_SOME_PENDING)]
        transition = engine.step(source, notify)
        assert transition.rule is RuleId.R4B_NOTIFY_SOME_PENDING
        assert only_notes(source, transition) == []

    def test_an_invoke_at_an_activity_without_inputs_fires_no_rule(self, minimal_one):
        """R6 needs the activity's inputs in the engine as in the relation:
        at a Preparing activity without them, rule_for, enabled and step all
        refuse the invoke, and the relation rejects an R6 step there."""
        graph = engine.explore_graph(
            minimal_one.workflow, minimal_one.registry, minimal_one.requests, 200
        )
        node, invoke = next(
            (node, m)
            for node in graph.edges
            for m in node.heads
            if m.kind is MessageKind.INVOKE
        )
        invocation = engine.step(node, invoke)
        assert invocation.rule is RuleId.R6_AA_INVOKE

        def first_without_inputs(instance):
            first = dataclasses.replace(instance.activities[0], input_parameters=None)
            return instance.with_activity(first)

        source = with_instance(node, first_without_inputs)
        assert next(source.instances())[1].activities[0].state is ActivityState.PREPARING
        refusal = "no rule consumes invoke at 'aa:c1:Echo Input' (state Preparing)"
        with pytest.raises(engine.NoRuleError, match=re.escape(refusal)):
            engine.rule_for(source, invoke)
        with pytest.raises(engine.NoRuleError, match=re.escape(refusal)):
            engine.enabled(source)
        with pytest.raises(engine.NoRuleError, match=re.escape(refusal)):
            engine.step(source, invoke)
        forged = dataclasses.replace(invocation, source=source)
        assert (P_RULE_REPLAY, 0, refusal) in only_notes(source, forged)


def created(records):
    """The instance snapshot that the R1 record, transition 0 on line 2,
    creates in a run of one client."""
    return records[1]["changed"][0]["after"]


# Edits of a one-client run's records, each with the creation witness it
# must give at the R1 transition.
CREATION_FORGERIES = {
    "client-already-has-an-instance": (
        lambda records: records[0]["initial"]["actors"].append(copy.deepcopy(created(records))),
        P_UNIQUE_CREATION,
        "request 'c1' already has an instance",
    ),
    "creates-no-instance": (
        lambda records: records[1]["changed"].clear(),
        P_CREATION_SNAPSHOT,
        "creation produced no instance",
    ),
    "stored-request-differs": (
        lambda records: created(records)["request"]["qos"].update(cost_cents=6),
        P_CREATION_SNAPSHOT,
        "stored request differs from the incoming request",
    ),
    "activity-carries-data": (
        lambda records: created(records)["activities"][0].update(input_parameters={"text": "x"}),
        P_CREATION_SNAPSHOT,
        "activity 'Echo Input' carries data at creation",
    ),
    "activity-bound": (
        lambda records: created(records)["activities"][0].update(
            ws={"endpoint": "echo-1", "advertised_qos": {"response_time_ms": 1, "cost_cents": 1}}
        ),
        P_CREATION_SNAPSHOT,
        "activity 'Echo Input' is bound at creation",
    ),
    "activity-names-another-owner": (
        lambda records: created(records)["activities"][0].update(wsoi_id="c9"),
        P_CREATION_SNAPSHOT,
        "activity 'Echo Input' names owner 'c9'",
    ),
}


class TestSystem:
    @pytest.mark.parametrize("forgery", sorted(CREATION_FORGERIES))
    def test_forged_creation_is_reported_at_the_r1_transition(self, forgery, minimal_run):
        edit, property_id, witness = CREATION_FORGERIES[forgery]
        assert minimal_run.steps[0].rule is RuleId.R1_WSOIM_CREATE
        verdict = check_pyramid([reload_with_edit(minimal_run, edit)])
        assert (property_id, 0, witness) in {
            (v.property_id, v.transition_index, v.witness) for v in verdict.system.violations
        }

    def test_explored_sets_conform(self, explored_corpora):
        for traces in explored_corpora.sets.values():
            assert check_system(traces).passed

    def test_all_denied_set_conforms(self, explored_corpora, infeasible_run):
        assert check_system(explored_corpora.sets["pair-2req-denied"]).passed
        assert check_system([infeasible_run]).passed

    def test_denied_instance_holding_binding_is_flagged(self, infeasible_run):
        def bind_denied(records):
            for record in records:
                if record.get("rule") == RuleId.R2A_SELECT_DENIED.value:
                    for change in record["changed"]:
                        after = change["after"]
                        if after and after.get("type") == "instance":
                            after["activities"][0]["ws"] = {
                                "endpoint": "shipment-rail",
                                "advertised_qos": {"response_time_ms": 200, "cost_cents": 5},
                            }
                            return
            raise AssertionError("no denial transition found")

        corrupted = reload_with_edit(infeasible_run, bind_denied)
        verdict = check_system([corrupted])
        assert not verdict.passed
        assert P_DENIED_UNBOUND in properties(verdict)

    def test_completion_without_servicing_is_one_monotonicity_fault(self, minimal_run):
        def skip_servicing(records):
            for record in records[1:]:
                for change in record["changed"]:
                    after = change["after"]
                    if after and after.get("type") == "instance" and after["state"] == "Servicing":
                        after["state"] = "Granted"

        verdict = check_system([reload_with_edit(minimal_run, skip_servicing)])
        completion = len(minimal_run) - 1
        assert minimal_run.steps[completion].rule is RuleId.R4A_NOTIFY_ALL_RETURNED
        assert [(v.property_id, v.transition_index) for v in verdict.violations] == [
            (P_STATE_MONOTONICITY, completion)
        ]
        assert "Granted -> Completed" in verdict.violations[0].witness

    def test_mixed_initial_configurations_check_in_one_pass(self, minimal_run, infeasible_run):
        # Each trace's creation and progress are read against the requests
        # its own initial configuration seeds, though both seed a client c1.
        verdict = check_pyramid([minimal_run, infeasible_run])
        assert verdict.passed and verdict.violations == ()

    def test_fault_is_placed_at_its_trace_among_initial_configurations(
        self, minimal_run, infeasible_run
    ):
        forged = edit_final(minimal_run, first_activity_preparing)
        alone = check_system([forged]).violations
        assert alone
        verdict = check_system([infeasible_run, forged])
        assert verdict.violations == tuple(dataclasses.replace(v, trace_index=1) for v in alone)


class TestService:
    def test_accepted_and_rejected_sets_conform(self, explored_corpora, infeasible_run):
        for traces in explored_corpora.sets.values():
            assert check_service(traces).passed
        assert check_service([infeasible_run]).passed

    @staticmethod
    def add_denial(minimal_run, *, emitted, received):
        """The minimal run with a denied reply added after the completion to
        the last transition's emitted messages, its client's received
        replies, or both."""

        def duplicate_reply(records):
            last = records[-1]
            assert last["record"] == "transition"
            completed = last["emitted"][0]
            denied = copy.deepcopy(completed)
            denied["kind"] = "deniedReply"
            del denied["params"]
            if emitted:
                last["emitted"].append(denied)
            if received:
                client = next(c for c in last["changed"] if c["address"] == completed["receiver"])
                client["after"]["received"].append(denied)

        return reload_with_edit(minimal_run, duplicate_reply)

    def test_double_reply_breaks_dichotomy(self, minimal_run):
        corrupted = self.add_denial(minimal_run, emitted=True, received=True)
        verdict = check_service([corrupted])
        assert not verdict.passed
        assert P_REPLY_DICHOTOMY in properties(verdict)

    def test_dichotomy_reads_what_the_client_received(self, minimal_run):
        received_only = self.add_denial(minimal_run, emitted=False, received=True)
        assert P_REPLY_DICHOTOMY in properties(check_service([received_only]))
        # A reply that is emitted but never received breaks replay, not the
        # dichotomy: the client saw one acceptance.
        emitted_only = self.add_denial(minimal_run, emitted=True, received=False)
        verdict = check_pyramid([emitted_only])
        assert P_RULE_REPLAY in properties(verdict.behavior)
        assert verdict.first_failed == "behavior"
        assert verdict.service.passed

    def test_unjustified_denial_is_flagged(self, minimal_one):
        trace = engine.run(
            minimal_one.workflow,
            minimal_one.registry,
            minimal_one.requests,
            seed=0,
            selector=support.always_deny_selector,
        )
        verdict = check_service([trace])
        assert not verdict.passed
        assert P_DENIAL_ORACLE in properties(verdict)

    def test_oracle_runs_once_per_seeded_request(self, explored_corpora, monkeypatch):
        traces = explored_corpora.sets["pair-2req-denied"]
        calls = []

        def counting(*args):
            calls.append(args)
            return _oracle_feasible(*args)

        monkeypatch.setattr(conformance, "_oracle_feasible", counting)
        verdict = check_service(traces)
        assert len(traces) == 20
        assert len(calls) == 2
        assert verdict.passed and verdict.violations == ()


class TestDenialOracle:
    @given(st.integers(1, 3), st.integers(1, 4), st.data())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_every_combination(self, n_ontologies, n_activities, data):
        candidates = [
            CandidateService(
                f"o{o}c{c}",
                f"O{o}",
                QoSSpec(data.draw(st.integers(1, 5)) * 10, data.draw(st.integers(0, 10**6))),
            )
            for o in range(n_ontologies)
            for c in range(data.draw(st.integers(1, 4)))
        ]
        ontologies = [
            f"O{data.draw(st.integers(0, n_ontologies - 1))}" for _ in range(n_activities)
        ]
        # A time bound under a slot's fastest candidate empties that slot;
        # one under 10 ms empties them all.
        budget = QoSSpec(data.draw(st.integers(0, 60)), data.draw(st.integers(0, 4 * 10**6)))
        registry = Registry.from_candidates(candidates)
        slots = [registry.query(ontology) for ontology in ontologies]
        assert _oracle_feasible(budget, ontologies, registry) == support.oracle_any_feasible(
            budget, slots
        )

    def test_twenty_slots_of_fifty_decide_at_the_minimum_cost(self):
        """50**20 combinations are far too many to enumerate; the decision
        must turn exactly at the least total cost within the time bound."""
        candidates = [
            CandidateService(
                f"o{o}c{c}", f"O{o}", QoSSpec((o * 37 + c * 11) % 500 + 1, (o * 7 + c * 13) % 97 + 1)
            )
            for o in range(20)
            for c in range(50)
        ]
        registry = Registry.from_candidates(candidates)
        ontologies = [f"O{o}" for o in range(20)]
        bound = 450  # cuts some candidates, the cheapest of some slots among them
        least = sum(
            min(c.qos.cost_cents for c in registry.query(o) if c.qos.response_time_ms <= bound)
            for o in ontologies
        )
        assert least > sum(min(c.qos.cost_cents for c in registry.query(o)) for o in ontologies)
        assert not _oracle_feasible(QoSSpec(bound, least - 1), ontologies, registry)
        assert _oracle_feasible(QoSSpec(bound, least), ontologies, registry)

    def test_a_slot_empty_under_the_time_bound_decides_before_combining(self):
        """Six slots of fifty candidates within the time bound, with random
        costs up to 10**6 under a budget of 10**8, then a slot with nothing
        within it: combining the first six would reach nearly 50**6 totals."""
        rng = random.Random(6)
        candidates = [
            CandidateService(f"o{o}c{c}", f"O{o}", QoSSpec(10, rng.randrange(10**6)))
            for o in range(6)
            for c in range(50)
        ]
        candidates.append(CandidateService("slow", "Slow", QoSSpec(1_000, 1)))
        registry = Registry.from_candidates(candidates)
        ontologies = [f"O{o}" for o in range(6)] + ["Slow"]
        assert not _oracle_feasible(QoSSpec(100, 10**8), ontologies, registry)
        assert _oracle_feasible(QoSSpec(1_000, 10**8), ontologies, registry)


def with_instance(config, edit):
    """config with each instance replaced by edit(instance), or removed
    where that is None."""
    edited = ((a, edit(s) if isinstance(s, WsoInstance) else s) for a, s in config.actors)
    actors = tuple((a, s) for a, s in edited if s is not None)
    return Configuration(actors=actors, undelivered=config.undelivered)


def edit_final(trace, edit):
    """trace with its last target's instance replaced by edit(instance)."""
    last = trace.steps[-1]
    target = with_instance(last.target, edit)
    return Trace(trace.initial, trace.steps[:-1] + (dataclasses.replace(last, target=target),))


def edit_penultimate(trace, edit):
    """trace with the instance of the configuration before its last
    transition replaced by edit(instance)."""
    *head, before, last = trace.steps
    config = with_instance(last.source, edit)
    before = dataclasses.replace(before, target=config)
    return Trace(trace.initial, (*head, before, dataclasses.replace(last, source=config)))


def notify_before_its_ack(fixture_set, run):
    """A prefix of an explored trace in which the activity returned before
    its acknowledgement was delivered, then a transition that consumes the
    notification ahead of the acknowledgement on their channel."""
    traces = engine.explore(
        fixture_set.workflow, fixture_set.registry, fixture_set.requests, max_transitions=200
    )
    prefix = next(
        trace.steps[: index + 1]
        for trace in traces
        for index, t in enumerate(trace.steps)
        if t.rule is RuleId.R7_AA_RETURN
        and any(m.kind is MessageKind.INVOKE_ACK for m in t.target.undelivered)
    )
    source = prefix[-1].target
    notify = next(m for m in source.undelivered if m.kind is MessageKind.NOTIFY)
    overtaking = Transition(
        source, RuleId.R4B_NOTIFY_SOME_PENDING, notify, source.advance(notify, {}, ())
    )
    return Trace(prefix[0].source, prefix + (overtaking,))


def edit_creation(trace, edit):
    """The creation alone, with the new instance replaced by edit(instance)."""
    creation = trace.steps[0]
    target = with_instance(creation.target, edit)
    return Trace(trace.initial, (dataclasses.replace(creation, target=target),))


def first_activity_bound(instance):
    """instance with its first activity bound to a service."""
    first = instance.activities[0]
    ws = dataclasses.replace(first.ws, endpoint="forged", advertised_qos=QoSSpec(1, 1))
    return instance.with_activity(dataclasses.replace(first, ws=ws))


def first_activity_preparing(instance):
    """instance with its first activity moved back to Preparing."""
    first = instance.activities[0]
    return instance.with_activity(dataclasses.replace(first, state=ActivityState.PREPARING))


# Case -> (property, layer that reports it, forged trace built from the
# minimal fixture set and its seed-3 run, text its witness contains); a case
# is named after its property unless several forge one property.
FORGED = {
    P_STATE_DOMAIN: (
        P_STATE_DOMAIN,
        "behavior",
        lambda _, run: edit_final(
            run, lambda i: dataclasses.replace(i, state=ActivityState.RETURNED)
        ),
        "has state <ActivityState.RETURNED",
    ),
    # A value that is not a state at all must not break the system layer.
    "state-domain-not-a-state": (
        P_STATE_DOMAIN,
        "behavior",
        lambda _, run: edit_final(run, lambda i: dataclasses.replace(i, state="Bogus")),
        "has state 'Bogus'",
    ),
    P_DELIVERY_ORDER: (
        P_DELIVERY_ORDER, "behavior", notify_before_its_ack, "overtook an older one"
    ),
    P_CREATION_SNAPSHOT: (
        P_CREATION_SNAPSHOT,
        "system",
        lambda _, run: edit_creation(
            run, lambda i: dataclasses.replace(i, output_parameters=(("x", "y"),))
        ),
        "outputs are set at creation",
    ),
    "creation-snapshot-not-waiting": (
        P_CREATION_SNAPSHOT,
        "system",
        lambda _, run: edit_creation(
            run, lambda i: dataclasses.replace(i, state=InstanceState.GRANTED)
        ),
        "state is Granted, expected Waiting",
    ),
    "creation-snapshot-bound": (
        P_CREATION_SNAPSHOT,
        "system",
        lambda _, run: edit_creation(run, first_activity_bound),
        "activity 'Echo Input' is bound at creation",
    ),
    P_REQUEST_CONSTANCY: (
        P_REQUEST_CONSTANCY,
        "system",
        lambda _, run: edit_final(
            run,
            lambda i: dataclasses.replace(
                i, request=dataclasses.replace(i.request, qos=QoSSpec(1, 1))
            ),
        ),
        "request of 'c1' changed",
    ),
    "request-constancy-instance-disappeared": (
        P_REQUEST_CONSTANCY,
        "system",
        lambda _, run: edit_final(run, lambda i: None),
        "instance 'c1' disappeared",
    ),
    "request-constancy-activity-set": (
        P_REQUEST_CONSTANCY,
        "system",
        lambda _, run: edit_final(
            run,
            lambda i: dataclasses.replace(
                i, activities=(dataclasses.replace(i.activities[0], aa_name="Renamed"),)
            ),
        ),
        "activity set of 'c1' changed",
    ),
    # Nothing consumes the seeded request.
    P_UNIQUE_CREATION: (
        P_UNIQUE_CREATION,
        "system",
        lambda _, run: Trace(run.initial, ()),
        "request 'c1' ended without an instance",
    ),
    P_GRANTED_PROGRESS: (
        P_GRANTED_PROGRESS,
        "system",
        lambda _, run: Trace(run.initial, run.steps[:3]),
        "granted instance 'c1' ended Granted",
    ),
    P_STATE_MONOTONICITY: (
        P_STATE_MONOTONICITY,
        "system",
        lambda _, run: edit_final(run, first_activity_preparing),
        "activity 'Echo Input' of 'c1' moved Returned -> Preparing",
    ),
    # Moves into and out of it: Servicing -> Bogus, then Bogus -> Completed.
    "state-monotonicity-through-a-non-state": (
        P_STATE_MONOTONICITY,
        "system",
        lambda _, run: edit_penultimate(run, lambda i: dataclasses.replace(i, state="Bogus")),
        "Bogus",
    ),
}


@pytest.mark.parametrize("case", sorted(FORGED))
def test_forged_trace_fires_its_property_at_its_layer(case, minimal_one, minimal_run):
    property_id, layer, forge, witness = FORGED[case]
    verdict = check_pyramid([forge(minimal_one, minimal_run)])
    fired = [v for v in getattr(verdict, layer).violations if v.property_id == property_id]
    assert fired and all(witness in v.witness for v in fired), verdict.violations


@pytest.fixture(scope="module")
def minimal_two_run(minimal_two):
    return engine.run(minimal_two.workflow, minimal_two.registry, minimal_two.requests, seed=0)


def cut_at(trace, index, **fields):
    """trace up to its transition at index, whose fields are replaced."""
    forged = dataclasses.replace(trace.steps[index], **fields)
    return Trace(trace.initial, (*trace.steps[:index], forged))


def with_unrelated_pending(run, edit):
    """run cut at its first transition that leaves another client's message
    pending, whose target pool is edit(pool, message)."""
    index, message = next(
        (i, m)
        for i, t in enumerate(run.steps)
        for m in t.target.undelivered
        if m.client_id != t.message.client_id
    )
    target = run.steps[index].target
    pool = edit(target.undelivered, message)
    return cut_at(run, index, target=Configuration(target.actors, pool)), index


def with_wrong_service_result(run):
    """run cut at its first service call, whose reply carries a forged result."""
    index, t = next((i, t) for i, t in enumerate(run.steps) if t.rule is RuleId.R8_WS_INVOKE)
    reply = dataclasses.replace(t.emitted[0], params=(("result", "forged"),))
    target = t.source.advance(t.message, {}, (reply,))
    return cut_at(run, index, emitted=(reply,), target=target), index


def with_other_client_served(run):
    """run cut at a transition of c1 whose target also gives c2 the replies
    c2 receives at the end."""
    address = client_address("c2")
    index, t = next(
        (i, t)
        for i, t in enumerate(run.steps)
        if t.message.client_id == "c1" and not t.target.actor(address).received
    )
    served = run.final.actor(address)
    actors = tuple((a, served if a == address else s) for a, s in t.target.actors)
    return cut_at(run, index, target=Configuration(actors, t.target.undelivered)), index


def with_unknown_activity_granted(run):
    """run with its grant naming an activity the workflow does not have."""

    def rename(records):
        for record in records:
            for message in [*record.get("emitted", ()), record.get("consumed") or {}]:
                for binding in message.get("assignment", ()):
                    binding["aa_name"] = "nosuch"

    index = next(i for i, t in enumerate(run.steps) if t.rule is RuleId.R2B_SELECT_GRANTED)
    return reload_with_edit(run, rename), index


# Case -> (forge(minimal two-client run, minimal run) -> (trace, index), text
# of the rule-replay witness at that index): each breaks one clause of the
# rule relation at one transition.
RELATION_FORGED = {
    "pool-drops-an-unrelated-message": (
        lambda run, _: with_unrelated_pending(
            run, lambda pool, m: tuple(x for x in pool if x is not m)
        ),
        "target pool is not the source pool",
    ),
    "pool-duplicates-an-unrelated-message": (
        lambda run, _: with_unrelated_pending(run, lambda pool, m: (*pool, m)),
        "target pool is not the source pool",
    ),
    "emitted-payload": (
        lambda run, _: with_wrong_service_result(run),
        "emitted messages differ from those R8_WsInvoke emits",
    ),
    "other-client-record": (
        lambda run, _: with_other_client_served(run),
        "may not change 'ca:c2'",
    ),
    "completion-without-outputs": (
        lambda _, run: (
            edit_penultimate(
                run,
                lambda i: i.with_activity(
                    dataclasses.replace(i.activities[0], output_parameters=None)
                ),
            ),
            len(run) - 1,
        ),
        "recorded rule R4a_NotifyAllReturned, the rules fire R4b_NotifySomePending",
    ),
    "grant-of-an-unknown-activity": (
        lambda _, run: with_unknown_activity_granted(run),
        "no rule consumes selectReplyGranted",
    ),
}


@pytest.mark.parametrize("case", sorted(RELATION_FORGED))
def test_forged_transition_is_outside_the_rule_relation(case, minimal_two_run, minimal_run):
    forge, witness = RELATION_FORGED[case]
    trace, index = forge(minimal_two_run, minimal_run)
    verdict = check_pyramid([trace])
    fired = {
        (v.property_id, v.transition_index)
        for v in verdict.behavior.violations
        if witness in v.witness
    }
    assert (P_RULE_REPLAY, index) in fired, verdict.behavior.violations


class TestPyramid:
    def test_engine_corpora_pass_all_layers(self, explored_corpora, minimal_run):
        verdict = check_pyramid(explored_corpora.sets["minimal-2req"])
        assert verdict.passed
        assert verdict.first_failed is None
        assert check_pyramid([minimal_run]).passed

    def test_empty_set_is_vacuously_conformant(self):
        verdict = check_pyramid([])
        assert verdict.passed
        assert verdict.violations == ()

    def test_infeasible_grant_fails_only_the_service_layer(self, bookstore_infeasible):
        trace = engine.run(
            bookstore_infeasible.workflow,
            bookstore_infeasible.registry,
            bookstore_infeasible.requests,
            seed=0,
            selector=support.always_grant_selector,
        )
        verdict = check_pyramid([trace])
        assert verdict.behavior.passed
        assert verdict.system.passed
        assert not verdict.service.passed
        assert P_GRANT_FEASIBILITY in properties(verdict.service)
        assert verdict.first_failed == "service"
        assert P_PYRAMID_CHAIN in properties(verdict)

    def test_chain_violation_names_a_trace_that_breaks_it(self, minimal_run, bookstore_infeasible):
        over_budget = engine.run(
            bookstore_infeasible.workflow,
            bookstore_infeasible.registry,
            bookstore_infeasible.requests,
            seed=0,
            selector=support.always_grant_selector,
        )
        verdict = check_pyramid([minimal_run, over_budget])
        assert verdict.first_failed == "service"
        assert {(v.property_id, v.trace_index) for v in verdict.violations} == {
            (P_GRANT_FEASIBILITY, 1),
            (P_PYRAMID_CHAIN, 1),
        }

    def test_denied_then_granted_fails_the_system_layer(self, bookstore_infeasible):
        trace = support.denied_then_granted_trace(
            bookstore_infeasible.workflow,
            bookstore_infeasible.registry,
            bookstore_infeasible.requests,
        )
        verdict = check_pyramid([trace])
        system = verdict.system
        assert not system.passed
        assert P_STATE_MONOTONICITY in properties(system)
        assert any("Denied -> Granted" in v.witness for v in system.violations)
        # The forged grant is no legal rule application either, so the chain
        # breaks at the bottom layer first.
        assert not verdict.behavior.passed
        assert verdict.first_failed == "behavior"
        # Dichotomy breaks too: the client saw both a denial and a completion.
        assert P_REPLY_DICHOTOMY in properties(verdict.service)

    @pytest.mark.parametrize("selector", sorted(SELECTORS))
    @pytest.mark.parametrize("name", sorted(EXPLORED_FIXTURES.values()))
    def test_graph_verdict_is_the_verdict_over_its_paths(self, name, selector, request):
        fixture_set = request.getfixturevalue(name)
        args = (fixture_set.workflow, fixture_set.registry, fixture_set.requests, 200)
        graph = engine.explore_graph(*args, selector=SELECTORS[selector])
        bounded = dataclasses.replace(graph, max_traces=engine.DEFAULT_MAX_TRACES)
        if graph.paths > engine.DEFAULT_MAX_TRACES:
            # Clients granted over budget: the graph is judged, but its
            # violations would have to be placed on more traces than allowed.
            with pytest.raises(engine.StateSpaceLimitError, match="maximal traces"):
                check_pyramid(bounded)
            return
        on_paths = check_pyramid(engine.explore(*args, selector=SELECTORS[selector]))
        on_graph = check_pyramid(bounded)
        layers = ("behavior", "system", "service")
        assert [getattr(on_graph, layer).passed for layer in layers] == [
            getattr(on_paths, layer).passed for layer in layers
        ]
        assert on_graph.violations == on_paths.violations

    def test_shared_transitions_report_as_if_unshared(self, minimal_two, tmp_path):
        """Explored traces share transitions, and each is checked once; the
        report must equal that of the same set read back from a file, where
        nothing is shared."""
        traces = engine.explore(
            minimal_two.workflow,
            minimal_two.registry,
            minimal_two.requests,
            max_transitions=200,
            selector=support.always_deny_selector,
        )
        uses = collections.Counter(id(t) for trace in traces for t in trace.steps)
        # Forge a recorded rule midway and a final instance state moved back
        # to Waiting, each on a transition several traces share.
        middle, last = traces[1].steps[2], traces[1].steps[-1]
        assert uses[id(middle)] > 1 and uses[id(last)] > 1
        address, instance = next(last.target.instances())
        waiting = dataclasses.replace(instance, state=InstanceState.WAITING)
        regressed = Configuration(
            actors=tuple((a, waiting if a == address else s) for a, s in last.target.actors),
            undelivered=last.target.undelivered,
        )
        forged_steps = {
            id(middle): dataclasses.replace(middle, rule=RuleId.R8_WS_INVOKE),
            id(last): dataclasses.replace(last, target=regressed),
        }
        forged = [
            Trace(trace.initial, tuple(forged_steps.get(id(t), t) for t in trace.steps))
            for trace in traces
        ]
        # Unshare the first step of every other trace, so that a shared
        # transition can also follow an unshared one.
        forged = [
            Trace(trace.initial, (dataclasses.replace(trace.steps[0]),) + trace.steps[1:])
            if index % 2
            else trace
            for index, trace in enumerate(forged)
        ]
        path = tmp_path / "forged.jsonl"
        formats.write_traces(forged, path)
        unshared = formats.read_traces(path)
        assert len({id(t) for trace in unshared for t in trace.steps}) == sum(map(len, unshared))

        verdict = check_pyramid(forged)
        assert verdict.violations == check_pyramid(unshared).violations
        holders = {
            index
            for index, trace in enumerate(traces)
            if any(t is middle or t is last for t in trace.steps)
        }
        assert {v.trace_index for v in verdict.behavior.violations} == holders
        assert {v.trace_index for v in verdict.system.violations} == holders
        # Relabelling the creation of c2 hides it; c1 regresses at the end.
        assert properties(verdict.system) == {
            P_UNIQUE_CREATION,
            P_STATE_MONOTONICITY,
            P_WAITING_PROGRESS,
        }
        assert properties(verdict.service) == {P_DENIAL_ORACLE}
