import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from qosorch import conformance, engine, formats, model
from qosorch.engine import (
    EngineError,
    MessageNotPendingError,
    NoRuleError,
    NotDeliverableError,
    StateSpaceLimitError,
    enabled,
    explore,
    explore_graph,
    initial_configuration,
    rule_for,
    run,
    step,
)
from qosorch.model import (
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
    WSOIM_ADDRESS,
    WsoInstance,
    WsoRequest,
    build_message,
    client_address,
    get_aa,
    get_wsoi,
    instance_address,
)

# Restated here, independently of the engine's table: the rules each message
# kind may fire.  Client-bound replies fire none.
KIND_RULES = {
    MessageKind.WSO_REQUEST: {RuleId.R1_WSOIM_CREATE},
    MessageKind.SELECT: {RuleId.R5_SS_SELECT},
    MessageKind.SELECT_REPLY_DENIED: {RuleId.R2A_SELECT_DENIED},
    MessageKind.SELECT_REPLY_GRANTED: {RuleId.R2B_SELECT_GRANTED},
    MessageKind.INVOKE_ACK: {RuleId.R3_INVOKE_ACK},
    MessageKind.NOTIFY: {RuleId.R4A_NOTIFY_ALL_RETURNED, RuleId.R4B_NOTIFY_SOME_PENDING},
    MessageKind.INVOKE: {RuleId.R6_AA_INVOKE},
    MessageKind.INVOKE_REPLY: {RuleId.R7_AA_RETURN},
    MessageKind.INVOKE_WS: {RuleId.R8_WS_INVOKE},
}


def step_by_kinds(config, kinds):
    """Drive the engine consuming one message of each requested kind in turn."""
    transitions = []
    for kind in kinds:
        options = [m for m, _ in enabled(config)]
        matches = [m for m in options if m.kind is kind]
        assert matches, f"no enabled {kind} in {[m.kind.value for m in options]}"
        transition = step(config, matches[0])
        transitions.append(transition)
        config = transition.target
    return config, transitions


class TestStepRules:
    def test_creation_rule_builds_waiting_instance_and_selects(self, minimal_one):
        config = initial_configuration(
            minimal_one.workflow, minimal_one.registry, minimal_one.requests
        )
        (request_msg, rule), = enabled(config)
        assert rule is RuleId.R1_WSOIM_CREATE
        transition = step(config, request_msg)
        instance = get_wsoi(transition.target, "c1")
        assert instance.state is InstanceState.WAITING
        assert instance.output_parameters is None
        for aa in instance.activities:
            assert aa.state is ActivityState.PREPARING
            assert aa.qos is None and aa.input_parameters is None and aa.output_parameters is None
            assert not aa.ws.bound
        assert [m.kind for m in transition.emitted] == [MessageKind.SELECT]
        assert transition.emitted[0].receiver == SS_ADDRESS
        assert transition.emitted[0].sender == instance_address("c1")
        # The consumed request no longer counts as undelivered.
        assert not any(m.kind is MessageKind.WSO_REQUEST for m in transition.target.undelivered)

    def test_denial_rule_moves_to_denied_and_replies(self, bookstore_infeasible):
        config = initial_configuration(
            bookstore_infeasible.workflow,
            bookstore_infeasible.registry,
            bookstore_infeasible.requests,
        )
        config, _ = step_by_kinds(config, [MessageKind.WSO_REQUEST, MessageKind.SELECT])
        (reply, rule), = enabled(config)
        assert rule is RuleId.R2A_SELECT_DENIED
        transition = step(config, reply)
        assert get_wsoi(transition.target, "c1").state is InstanceState.DENIED
        assert [m.kind for m in transition.emitted] == [MessageKind.DENIED_REPLY]

    def test_ack_rule_moves_granted_to_servicing(self, minimal_one):
        config = initial_configuration(
            minimal_one.workflow, minimal_one.registry, minimal_one.requests
        )
        config, _ = step_by_kinds(
            config,
            [
                MessageKind.WSO_REQUEST,
                MessageKind.SELECT,
                MessageKind.SELECT_REPLY_GRANTED,
                MessageKind.INVOKE,
            ],
        )
        assert get_wsoi(config, "c1").state is InstanceState.GRANTED
        config, transitions = step_by_kinds(config, [MessageKind.INVOKE_ACK])
        assert transitions[-1].rule is RuleId.R3_INVOKE_ACK
        assert get_wsoi(config, "c1").state is InstanceState.SERVICING

    def test_grant_binds_and_routes_inputs(self, bookstore_feasible):
        config = initial_configuration(
            bookstore_feasible.workflow,
            bookstore_feasible.registry,
            bookstore_feasible.requests,
        )
        config, transitions = step_by_kinds(
            config,
            [MessageKind.WSO_REQUEST, MessageKind.SELECT, MessageKind.SELECT_REPLY_GRANTED],
        )
        grant = transitions[-1]
        assert grant.rule is RuleId.R2B_SELECT_GRANTED
        kinds = [m.kind for m in grant.emitted]
        assert kinds[0] is MessageKind.GRANTED_REPLY
        assert kinds.count(MessageKind.INVOKE) == 6
        instance = get_wsoi(config, "c1")
        bindings = [aa.ws for aa in instance.activities]
        assert len(bindings) == 6 and all(b.bound for b in bindings)
        pays = get_aa(instance, "Get Pays")
        assert dict(pays.input_parameters) == {
            "amount": "120",
            "currency": "USD",
            "title_filter": "fiction",
        }
        listing = get_aa(instance, "Send List of Books")
        assert dict(listing.input_parameters) == {"title_filter": "fiction"}

    def test_ws_reply_is_deterministic(self, minimal_one):
        def drive():
            config = initial_configuration(
                minimal_one.workflow, minimal_one.registry, minimal_one.requests
            )
            _, transitions = step_by_kinds(
                config,
                [
                    MessageKind.WSO_REQUEST,
                    MessageKind.SELECT,
                    MessageKind.SELECT_REPLY_GRANTED,
                    MessageKind.INVOKE,
                    MessageKind.INVOKE_WS,
                ],
            )
            return transitions[-1].emitted[0]

        first, second = drive(), drive()
        assert first == second
        assert first.kind is MessageKind.INVOKE_REPLY
        assert dict(first.params)["result"].startswith("echo-basic:")


class TestStepErrors:
    def test_message_must_be_pending(self, minimal_one):
        config = initial_configuration(
            minimal_one.workflow, minimal_one.registry, minimal_one.requests
        )
        stray = dataclasses.replace(config.undelivered[0], client_id="c9",
                                    sender="ca:c9")
        with pytest.raises(MessageNotPendingError):
            step(config, stray)

    def test_same_channel_fifo_enforced(self, minimal_one):
        trace = run(minimal_one.workflow, minimal_one.registry, minimal_one.requests, seed=0)
        for transition in trace.steps:
            pool = transition.source.undelivered
            ready = transition.source.heads
            for message in pool:
                if message not in ready:
                    with pytest.raises(NotDeliverableError):
                        step(transition.source, message)

    def test_unknown_ontology_request_rejected_upfront(self, minimal_one):
        bad = WsoRequest("c1", "SomethingElse", (), QoSSpec(10, 10))
        with pytest.raises(ValueError):
            initial_configuration(minimal_one.workflow, minimal_one.registry, [bad])

    def test_duplicate_client_ids_rejected(self, minimal_one):
        request = minimal_one.requests[0]
        with pytest.raises(ValueError):
            initial_configuration(
                minimal_one.workflow, minimal_one.registry, [request, request]
            )


class TestEnabled:
    def test_initial_configuration_enables_creation(self, minimal_one):
        config = initial_configuration(
            minimal_one.workflow, minimal_one.registry, minimal_one.requests
        )
        pairs = enabled(config)
        assert [(m.kind, r) for m, r in pairs] == [
            (MessageKind.WSO_REQUEST, RuleId.R1_WSOIM_CREATE)
        ]

    def test_terminal_configuration_enables_nothing(self, minimal_one):
        trace = run(minimal_one.workflow, minimal_one.registry, minimal_one.requests, seed=0)
        assert enabled(trace.final) == []
        assert trace.final.undelivered == ()

    def test_two_pending_notifications_listed_by_sender(self, pair_one):
        config = initial_configuration(
            pair_one.workflow, pair_one.registry, pair_one.requests
        )
        config, _ = step_by_kinds(
            config,
            [
                MessageKind.WSO_REQUEST,
                MessageKind.SELECT,
                MessageKind.SELECT_REPLY_GRANTED,
                MessageKind.INVOKE,
                MessageKind.INVOKE,
                MessageKind.INVOKE_ACK,
                MessageKind.INVOKE_ACK,
                MessageKind.INVOKE_WS,
                MessageKind.INVOKE_WS,
                MessageKind.INVOKE_REPLY,
                MessageKind.INVOKE_REPLY,
            ],
        )
        pairs = enabled(config)
        assert [m.kind for m, _ in pairs] == [MessageKind.NOTIFY, MessageKind.NOTIFY]
        senders = [m.sender for m, _ in pairs]
        assert senders == sorted(senders)
        assert {r for _, r in pairs} == {
            RuleId.R4A_NOTIFY_ALL_RETURNED,
            RuleId.R4B_NOTIFY_SOME_PENDING,
        } or all(r is RuleId.R4B_NOTIFY_SOME_PENDING for _, r in pairs)


class TestRuleDeterminism:
    def test_every_reachable_message_fires_the_rule_of_its_kind(self, explored_corpora):
        for traces in explored_corpora.sets.values():
            for trace in traces:
                for config in trace.configurations():
                    for message in config.heads:
                        assert rule_for(config, message) in KIND_RULES[message.kind]
                for transition in trace.steps:
                    assert transition.rule in KIND_RULES[transition.message.kind]

    @pytest.mark.parametrize(
        "fixture", ["minimal_one", "minimal_two", "pair_one", "pair_two_denied", "pair_mixed"]
    )
    def test_rule_for_names_the_rule_step_fires(self, fixture, request):
        fixture_set = request.getfixturevalue(fixture)
        graph = explore_graph(
            fixture_set.workflow, fixture_set.registry, fixture_set.requests, max_transitions=200
        )
        for config in graph.edges:
            for message in config.heads:
                assert rule_for(config, message) is step(config, message).rule

    def test_messages_without_a_rule_raise_no_rule_error(self, minimal_one):
        config = initial_configuration(
            minimal_one.workflow, minimal_one.registry, minimal_one.requests
        )
        config, _ = step_by_kinds(config, [MessageKind.WSO_REQUEST])
        request = get_wsoi(config, "c1").request
        # A client-bound reply left in the pool: no kind entry fires for it.
        reply = Message(
            kind=MessageKind.GRANTED_REPLY,
            sender=instance_address("c1"),
            receiver=client_address("c1"),
            client_id="c1",
            ontology=request.ontology,
            qos=request.qos,
        )
        # A selection request addressed to the instance instead of the selector.
        misrouted = Message(
            kind=MessageKind.SELECT,
            sender=instance_address("c1"),
            receiver=instance_address("c1"),
            client_id="c1",
            ontology=request.ontology,
            qos=request.qos,
        )
        # A service invocation for an activity the instance does not have.
        unknown_service = build_message(MessageKind.INVOKE_WS, "c1", "missing", params=())
        # Heads at their kind's receiver role that the rest of their rule's
        # condition refuses: a selection for a client without an instance, a
        # second request from a client that has one, a request for another
        # ontology, a grant that does not cover the activity set, and a service
        # invocation before the service is bound.
        orphan_select = build_message(
            MessageKind.SELECT, "c9", ontology=request.ontology, qos=request.qos
        )
        repeated_request = build_message(
            MessageKind.WSO_REQUEST, "c1", ontology=request.ontology, qos=request.qos, params=()
        )
        other_ontology = build_message(
            MessageKind.WSO_REQUEST, "c9", ontology="Other", qos=request.qos, params=()
        )
        partial_grant = build_message(MessageKind.SELECT_REPLY_GRANTED, "c1", assignment=())
        aa_name = get_wsoi(config, "c1").activities[0].aa_name
        unbound_service = build_message(MessageKind.INVOKE_WS, "c1", aa_name, params=())
        refused = (
            reply,
            misrouted,
            unknown_service,
            orphan_select,
            repeated_request,
            other_ontology,
            partial_grant,
            unbound_service,
        )
        polluted = Configuration(config.actors, config.undelivered + refused)
        for message in refused:
            with pytest.raises(NoRuleError):
                rule_for(polluted, message)
            with pytest.raises(NoRuleError):
                step(polluted, message)
        with pytest.raises(NoRuleError, match="'ws:c1:missing'"):
            step(polluted, unknown_service)
        # enabled lists only what step takes, so it refuses the orphan select.
        with_orphan = Configuration(config.actors, config.undelivered + (orphan_select,))
        with pytest.raises(NoRuleError, match=r"no rule consumes select at 'ss' \(state None\)"):
            enabled(with_orphan)


    @pytest.mark.parametrize(
        "missing,actor", [(SS_ADDRESS, "service selector"), (WSOIM_ADDRESS, "instance manager")]
    )
    def test_a_select_without_the_actors_it_reads_fails_in_enabled_as_in_step(
        self, minimal_one, missing, actor
    ):
        config = initial_configuration(
            minimal_one.workflow, minimal_one.registry, minimal_one.requests
        )
        config, _ = step_by_kinds(config, [MessageKind.WSO_REQUEST])
        (select,) = config.heads
        assert select.kind is MessageKind.SELECT
        stripped = Configuration(
            actors=tuple(pair for pair in config.actors if pair[0] != missing),
            undelivered=config.undelivered,
        )
        for call in (
            lambda: enabled(stripped),
            lambda: rule_for(stripped, select),
            lambda: step(stripped, select),
        ):
            with pytest.raises(EngineError, match=f"missing the {actor}$") as raised:
                call()
            assert type(raised.value) is EngineError


class TestRun:
    def test_seed_determinism(self, bookstore_feasible):
        first = run(
            bookstore_feasible.workflow,
            bookstore_feasible.registry,
            bookstore_feasible.requests,
            seed=11,
        )
        second = run(
            bookstore_feasible.workflow,
            bookstore_feasible.registry,
            bookstore_feasible.requests,
            seed=11,
        )
        assert first == second

    def test_different_seeds_reach_different_orders(self, bookstore_feasible):
        orders = {
            tuple(
                t.rule for t in run(
                    bookstore_feasible.workflow,
                    bookstore_feasible.registry,
                    bookstore_feasible.requests,
                    seed=seed,
                ).steps
            )
            for seed in range(8)
        }
        assert len(orders) >= 2

    def test_feasible_run_completes_with_one_reply(self, bookstore_feasible):
        trace = run(
            bookstore_feasible.workflow,
            bookstore_feasible.registry,
            bookstore_feasible.requests,
            seed=0,
        )
        instance = get_wsoi(trace.final, "c1")
        assert instance.state is InstanceState.COMPLETED
        completed = [
            m
            for t in trace.steps
            for m in t.emitted
            if m.kind is MessageKind.COMPLETED_REPLY
        ]
        assert len(completed) == 1
        assert len(instance.activities) == 6
        assert all(aa.ws.bound for aa in instance.activities)
        # Six returned activities contribute one output each.
        assert len(instance.output_parameters) == 6

    def test_infeasible_run_denies_with_nil_bindings(self, bookstore_infeasible):
        trace = run(
            bookstore_infeasible.workflow,
            bookstore_infeasible.registry,
            bookstore_infeasible.requests,
            seed=0,
        )
        instance = get_wsoi(trace.final, "c1")
        assert instance.state is InstanceState.DENIED
        assert all(not aa.ws.bound for aa in instance.activities)
        denied = [
            m for t in trace.steps for m in t.emitted if m.kind is MessageKind.DENIED_REPLY
        ]
        assert len(denied) == 1

    def test_no_step_replaces_a_snapshot_with_an_equal_copy(self, bookstore_feasible):
        """A rule that leaves an actor as it is keeps the source's object, as
        R3 does at an instance that is already Servicing."""
        requests = [
            dataclasses.replace(bookstore_feasible.requests[0], client_id=f"c{i}")
            for i in range(3)
        ]
        trace = run(bookstore_feasible.workflow, bookstore_feasible.registry, requests, seed=0)
        copies = [
            (index, address)
            for index, t in enumerate(trace.steps)
            for address, after in t.target.actors
            for before in (t.source.actor(address),)
            if before is not after and before == after
        ]
        assert copies == []

    def test_no_requests_is_an_empty_trace(self, minimal_one):
        trace = run(minimal_one.workflow, minimal_one.registry, [], seed=0)
        assert len(trace) == 0
        assert trace.final.undelivered == ()


class TestExplore:
    def test_counts_match_interleaving_oracle(self, explored_corpora):
        expected = {
            "minimal-1req": support.count_interleavings([(1, True)]),
            "minimal-2req": support.count_interleavings([(1, True), (1, False)]),
            "pair-1req": support.count_interleavings([(2, True)]),
            "pair-2req-denied": support.count_interleavings([(2, False), (2, False)]),
        }
        assert expected == {
            "minimal-1req": 3,
            "minimal-2req": 495,
            "pair-1req": 2268,
            "pair-2req-denied": 20,
        }
        for key, traces in explored_corpora.sets.items():
            assert len(traces) == expected[key], key

    def test_all_labels_distinct(self, explored_corpora):
        for traces in explored_corpora.sets.values():
            labels = {tuple((t.rule, t.message) for t in trace.steps) for trace in traces}
            assert len(labels) == len(traces)

    def test_every_maximal_trace_terminates_each_instance(self, explored_corpora):
        for traces in explored_corpora.sets.values():
            for trace in traces:
                assert trace.final.undelivered == ()
                for _, instance in trace.final.instances():
                    assert instance.state in (
                        InstanceState.COMPLETED,
                        InstanceState.DENIED,
                    )

    def test_granted_traces_eventually_complete(self, explored_corpora):
        for traces in explored_corpora.sets.values():
            for trace in traces:
                granted = {
                    m.client_id
                    for t in trace.steps
                    for m in t.emitted
                    if m.kind is MessageKind.GRANTED_REPLY
                }
                completed = {
                    m.client_id
                    for t in trace.steps
                    for m in t.emitted
                    if m.kind is MessageKind.COMPLETED_REPLY
                }
                assert granted == completed

    def test_transition_bound_enforced(self, bookstore_feasible):
        with pytest.raises(StateSpaceLimitError):
            explore(
                bookstore_feasible.workflow,
                bookstore_feasible.registry,
                bookstore_feasible.requests,
                max_transitions=1,
            )

    def test_trace_bound_enforced(self, pair_one):
        with pytest.raises(StateSpaceLimitError):
            explore(
                pair_one.workflow,
                pair_one.registry,
                pair_one.requests,
                max_transitions=100,
                max_traces=5,
            )


EXPLORED_FIXTURES = {
    "minimal-1req": "minimal_one",
    "minimal-2req": "minimal_two",
    "pair-1req": "pair_one",
    "pair-2req-denied": "pair_two_denied",
}


class TestExploreGraph:
    """explore builds the configuration graph once and enumerates its paths;
    a plain search that steps every path is the reference."""

    @pytest.mark.parametrize("key", sorted(EXPLORED_FIXTURES))
    def test_matches_naive_search(self, key, explored_corpora, request):
        fixture_set = request.getfixturevalue(EXPLORED_FIXTURES[key])
        naive = support.naive_explore(
            fixture_set.workflow, fixture_set.registry, fixture_set.requests
        )
        explored = explored_corpora.sets[key]
        assert [[(s.rule, s.message) for s in t.steps] for t in explored] == [
            [(s.rule, s.message) for s in t.steps] for t in naive
        ]
        assert [t.final for t in explored] == [t.final for t in naive]

    @pytest.mark.parametrize("key", sorted(EXPLORED_FIXTURES))
    def test_steps_each_distinct_edge_once(self, key, monkeypatch, request):
        fixture_set = request.getfixturevalue(EXPLORED_FIXTURES[key])
        calls = 0
        original = engine.step

        def counting_step(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "step", counting_step)
        traces = explore(
            fixture_set.workflow, fixture_set.registry, fixture_set.requests, max_transitions=200
        )
        edges = {(t.source, t.message) for trace in traces for t in trace.steps}
        assert calls == len(edges)

    def test_interns_configurations_equal_up_to_cross_channel_order(self, pair_one, monkeypatch):
        calls = 0
        original = engine.step

        def counting_step(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "step", counting_step)
        traces = explore(pair_one.workflow, pair_one.registry, pair_one.requests, max_transitions=200)
        assert len(traces) == 2268
        assert len({c for trace in traces for c in trace.configurations()}) == 67
        assert calls == 147

    @pytest.mark.parametrize(
        "name, shapes",
        [
            ("minimal_one", [(1, True)]),
            ("minimal_two", [(1, True), (1, False)]),
            ("pair_one", [(2, True)]),
            ("pair_two_denied", [(2, False), (2, False)]),
            ("pair_mixed", [(2, True), (2, False)]),
        ],
    )
    def test_counts_paths_as_the_interleaving_oracle(self, name, shapes, request):
        fixture_set = request.getfixturevalue(name)
        graph = explore_graph(
            fixture_set.workflow, fixture_set.registry, fixture_set.requests, max_transitions=200
        )
        assert graph.paths == support.count_interleavings(shapes)

    def test_counts_paths_it_does_not_list(self, pair_mixed):
        args = (pair_mixed.workflow, pair_mixed.registry, pair_mixed.requests)
        graph = explore_graph(*args, max_transitions=200)
        assert (graph.paths, len(graph.edges), len(graph.terminals)) == (1_270_080, 268, 1)
        with pytest.raises(StateSpaceLimitError, match="more than 100000 maximal traces"):
            explore(*args, max_transitions=200)

    def test_bounds_raise_where_the_naive_search_says(self, pair_two_denied):
        args = (pair_two_denied.workflow, pair_two_denied.registry, pair_two_denied.requests)
        naive = support.naive_explore(*args)
        count, longest = len(naive), max(len(trace) for trace in naive)
        assert len(explore(*args, max_transitions=longest, max_traces=count)) == count
        with pytest.raises(StateSpaceLimitError, match=f"more than {count - 1} maximal traces"):
            explore(*args, max_transitions=longest, max_traces=count - 1)
        with pytest.raises(StateSpaceLimitError, match=f"exceeded {longest - 1} transitions"):
            explore(*args, max_transitions=longest - 1, max_traces=count)


class TestCanonicalConfiguration:
    """advance derives a target's canonical pool, address index and changed
    addresses from its source; building the same configuration from scratch
    must agree in every respect.  TestCarriedHeads covers the heads."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_advance_agrees_with_a_rebuilt_configuration(
        self, data, minimal_two, pair_two_denied, bookstore_feasible
    ):
        fixture_set = data.draw(st.sampled_from([minimal_two, pair_two_denied, bookstore_feasible]))
        config = initial_configuration(
            fixture_set.workflow, fixture_set.registry, fixture_set.requests
        )
        for _ in range(data.draw(st.integers(1, 60))):
            if not config.heads:
                break
            message = data.draw(st.sampled_from(config.heads))
            source, config = config, step(config, message).target
            # Actors and channels in another order, each channel's FIFO kept.
            rebuilt = Configuration(
                actors=tuple(reversed(config.actors)),
                undelivered=tuple(sorted(config.undelivered, key=lambda m: (m.sender, m.receiver))),
            )
            assert config == rebuilt and hash(config) == hash(rebuilt)
            assert enabled(config) == enabled(rebuilt)
            assert source.changes(config) == source.changes(rebuilt)
            assert config.changes(source) == rebuilt.changes(source)

    def test_per_step_message_work_does_not_grow_with_clients(self, bookstore_feasible, monkeypatch):
        """Count the Python-level Message comparisons and sort keys a run
        makes per step: sorting or scanning the pool makes the count grow
        with the number of clients."""
        calls = 0

        def counted(original):
            def wrapper(*args, **kwargs):
                nonlocal calls
                calls += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Message, "sort_key", counted(Message.sort_key))
        monkeypatch.setattr(Message, "__eq__", counted(Message.__eq__))
        per_step = {}
        for clients in (10, 40):
            requests = [
                dataclasses.replace(bookstore_feasible.requests[0], client_id=f"c{i:02d}")
                for i in range(clients)
            ]
            calls = 0
            trace = run(bookstore_feasible.workflow, bookstore_feasible.registry, requests, seed=0)
            per_step[clients] = calls / len(trace)
        assert per_step[40] <= per_step[10] + 1

    def test_per_step_tuple_work_does_not_grow_with_clients(
        self, bookstore_feasible, monkeypatch, tmp_path
    ):
        """Count the actor entries and pool messages of every tuple and list
        that model, engine and conformance build with tuple() or list(), per
        step of engine.run, read_traces and check_behavior: a step that
        copies or sorts the whole pool or the whole actor set makes the count
        grow with the number of clients.  References to other containers,
        such as per-client components, are not counted."""
        snapshots = (ManagerState, SelectorState, WsoInstance, ClientRecord)
        entries = 0

        def counted(build):
            def wrapper(*args):
                nonlocal entries
                built = build(*args)
                entries += sum(
                    isinstance(x, Message)
                    or (type(x) is tuple and len(x) == 2 and isinstance(x[1], snapshots))
                    for x in built
                )
                return built

            return wrapper

        for module in (model, engine, conformance):
            for build in (tuple, list):
                monkeypatch.setattr(module, build.__name__, counted(build), raising=False)
        per_step = {}
        for clients in (10, 160):
            requests = [
                dataclasses.replace(bookstore_feasible.requests[0], client_id=f"c{i:03d}")
                for i in range(clients)
            ]
            path = tmp_path / f"run-{clients}.jsonl"
            entries = 0
            trace = run(bookstore_feasible.workflow, bookstore_feasible.registry, requests, seed=0)
            counts = {"run": entries}
            formats.write_traces([trace], path)
            entries = 0
            (read,) = formats.read_traces(path)
            counts["read_traces"] = entries
            entries = 0
            assert conformance.check_behavior([read]).passed
            counts["check_behavior"] = entries
            per_step[clients] = {phase: count / len(trace) for phase, count in counts.items()}
        for phase, count in per_step[160].items():
            assert count <= per_step[10][phase] + 1, (phase, per_step)


def checking_update_heads(checked):
    """Configuration.update_heads that appends each configuration it updates
    heads for to checked, after asserting that the heads it leaves are the
    ones the configuration derives from its pool."""
    original = Configuration.update_heads

    def update_heads(self, heads):
        original(self, heads)
        assert heads == list(self.heads)
        checked.append(self)

    return update_heads


class TestCarriedHeads:
    """run and explore_graph carry each configuration's heads beside it and
    update them from what advance recorded; they must be the heads the
    configuration derives from its pool."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_run_carries_the_heads_of_every_configuration(
        self, data, minimal_two, pair_two_denied, bookstore_feasible
    ):
        fixture_set = data.draw(st.sampled_from([minimal_two, pair_two_denied, bookstore_feasible]))
        checked = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Configuration, "update_heads", checking_update_heads(checked))
            trace = run(
                fixture_set.workflow,
                fixture_set.registry,
                fixture_set.requests,
                seed=data.draw(st.integers(0, 2**32 - 1)),
            )
        assert [id(config) for config in checked] == [id(t.target) for t in trace.steps]

    @pytest.mark.parametrize("key", sorted(EXPLORED_FIXTURES))
    def test_explore_carries_the_heads_of_every_node(self, key, monkeypatch, request):
        fixture_set = request.getfixturevalue(EXPLORED_FIXTURES[key])
        checked = []
        monkeypatch.setattr(Configuration, "update_heads", checking_update_heads(checked))
        graph = explore_graph(
            fixture_set.workflow, fixture_set.registry, fixture_set.requests, 200
        )
        nodes = {id(node) for node in graph.edges if node is not graph.initial}
        assert len(checked) == len(nodes) and {id(node) for node in checked} == nodes
