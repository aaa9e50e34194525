import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from qosorch import engine
from qosorch.model import (
    ACTIVITY_SUCCESSORS,
    ActivityActor,
    ActivityState,
    ClientRecord,
    Configuration,
    INSTANCE_SUCCESSORS,
    InstanceState,
    Message,
    MessageKind,
    QoSSpec,
    RuleId,
    Trace,
    Transition,
    WorkflowDef,
    WsBinding,
    WsoInstance,
    WsoRequest,
    activity_address,
    activity_state_can_follow,
    client_address,
    freeze_params,
    get_aa,
    get_wsoi,
    instance_address,
    instance_state_can_follow,
    message_schema_error,
    parse_address,
    resolves,
    Role,
    service_address,
    SS_ADDRESS,
    WSOIM_ADDRESS,
)

short_text = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), max_codepoint=0x017F),
    min_size=1,
    max_size=8,
)


class TestQoSSpec:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            QoSSpec(-1, 0)
        with pytest.raises(ValueError):
            QoSSpec(0, -5)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            QoSSpec(1.5, 0)
        with pytest.raises(TypeError):
            QoSSpec(True, 0)


class TestParams:
    def test_sorted_and_deduplicated(self):
        assert freeze_params({"b": "2", "a": "1"}) == (("a", "1"), ("b", "2"))
        with pytest.raises(ValueError):
            freeze_params([("a", "1"), ("a", "2")])
        with pytest.raises(TypeError):
            freeze_params({"a": 1})

    @given(st.dictionaries(short_text, short_text, max_size=6))
    def test_round_trip(self, mapping):
        assert dict(freeze_params(mapping)) == mapping


class TestStateMachines:
    @pytest.mark.parametrize(
        "state,successors",
        [
            (InstanceState.WAITING, {InstanceState.WAITING, InstanceState.GRANTED, InstanceState.DENIED}),
            (InstanceState.GRANTED, {InstanceState.GRANTED, InstanceState.SERVICING}),
            (InstanceState.SERVICING, {InstanceState.SERVICING, InstanceState.COMPLETED}),
            (InstanceState.DENIED, {InstanceState.DENIED}),
            (InstanceState.COMPLETED, {InstanceState.COMPLETED}),
        ],
    )
    def test_instance_successors(self, state, successors):
        assert INSTANCE_SUCCESSORS[state] == successors
        for nxt in InstanceState:
            assert instance_state_can_follow(state, nxt) == (nxt in successors)

    @pytest.mark.parametrize(
        "state,successors",
        [
            (ActivityState.PREPARING, {ActivityState.PREPARING, ActivityState.INVOKING}),
            (ActivityState.INVOKING, {ActivityState.INVOKING, ActivityState.RETURNED}),
            (ActivityState.RETURNED, {ActivityState.RETURNED}),
        ],
    )
    def test_activity_successors(self, state, successors):
        assert ACTIVITY_SUCCESSORS[state] == successors
        for nxt in ActivityState:
            assert activity_state_can_follow(state, nxt) == (nxt in successors)


def make_request(cid="c1", ontology="Shop", qos=QoSSpec(100, 10), inputs=()):
    return WsoRequest(client_id=cid, ontology=ontology, input_parameters=inputs, qos=qos)


class TestRequest:
    def test_immutable(self):
        request = make_request()
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.client_id = "c2"

    def test_validation(self):
        with pytest.raises(ValueError):
            make_request(cid="")
        with pytest.raises(ValueError):
            make_request(cid="a:b")
        with pytest.raises(ValueError):
            make_request(ontology="")


class TestBinding:
    def test_endpoint_and_qos_go_together(self):
        WsBinding()  # unbound is fine
        WsBinding("svc-1", QoSSpec(5, 5))
        with pytest.raises(ValueError):
            WsBinding("svc-1", None)
        with pytest.raises(ValueError):
            WsBinding(None, QoSSpec(5, 5))


class TestInstance:
    def test_create_is_field_exact(self):
        request = make_request()
        instance = WsoInstance.create(request, ["A", "B"])
        assert instance.state is InstanceState.WAITING
        assert instance.output_parameters is None
        assert instance.activity_names() == ("A", "B")
        for aa in instance.activities:
            assert aa.state is ActivityState.PREPARING
            assert aa.qos is None and aa.input_parameters is None
            assert aa.output_parameters is None
            assert not aa.ws.bound
            assert aa.wsoi_id == "c1"

    def test_duplicate_activity_names_rejected(self):
        with pytest.raises(ValueError):
            WsoInstance.create(make_request(), ["A", "A"])

    def test_with_activity_replaces_in_place(self):
        instance = WsoInstance.create(make_request(), ["A", "B"])
        updated = dataclasses.replace(get_aa(instance, "B"), state=ActivityState.INVOKING)
        bumped = instance.with_activity(updated)
        assert get_aa(bumped, "B").state is ActivityState.INVOKING
        assert get_aa(bumped, "A").state is ActivityState.PREPARING
        assert bumped.activity_names() == ("A", "B")


class TestWorkflowDef:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkflowDef(ontology="Shop", activities=())
        with pytest.raises(ValueError):
            WorkflowDef(ontology="Shop", activities=(("A", "X"), ("A", "Y")))
        with pytest.raises(ValueError):
            WorkflowDef(ontology="Shop", activities=(("A.B", "X"),))
        workflow = WorkflowDef(ontology="Shop", activities=(("A", "X"), ("B", "Y")))
        assert workflow.activity_names() == ("A", "B")


class TestAddresses:
    def test_roles(self):
        assert parse_address(WSOIM_ADDRESS).role is Role.MANAGER
        assert parse_address(SS_ADDRESS).role is Role.SELECTOR
        assert parse_address(client_address("c1")).role is Role.CLIENT
        assert parse_address(instance_address("c1")).role is Role.INSTANCE
        assert parse_address(activity_address("c1", "Get Pays")).role is Role.ACTIVITY
        assert parse_address(service_address("c1", "Get Pays")).role is Role.SERVICE
        assert parse_address("bogus:x").role is None

    def test_embedded_identities(self):
        assert parse_address(activity_address("c1", "A:B")).client_id == "c1"
        assert parse_address(activity_address("c1", "A:B")).aa_name == "A:B"
        assert parse_address(client_address("c1")).client_id == "c1"
        assert parse_address(instance_address("c1")).aa_name is None
        for prefix in ("ca", "wsoi", "aa", "ws"):
            assert parse_address(prefix).client_id is None

    @settings(max_examples=500, deadline=None)
    @given(
        address=st.one_of(
            st.sampled_from([WSOIM_ADDRESS, SS_ADDRESS]),
            st.text(alphabet=":acwsoim. ", max_size=12),
            st.tuples(
                st.sampled_from(["ca", "wsoi", "aa", "ws", WSOIM_ADDRESS, SS_ADDRESS]),
                st.text(alphabet=":acwsoim. ", max_size=8),
            ).map(":".join),
        )
    )
    def test_parse_address_agrees_with_a_plain_split(self, address):
        assert parse_address(address) == support.reference_address(address)

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["minimal_one", "pair_one", "bookstore_feasible"]),
        seed=st.integers(0, 20),
        prefix=st.integers(0, 60),
    )
    def test_resolves_is_membership_in_the_actors_resolvable_addresses(
        self, request, name, seed, prefix
    ):
        fixture_set = request.getfixturevalue(name)
        trace = engine.run(fixture_set.workflow, fixture_set.registry, fixture_set.requests, seed)
        config = trace.configurations()[min(prefix, len(trace))]
        assert_resolves_as_listed(config, fixture_set.workflow.activity_names())

    def test_resolves_as_listed_in_every_configuration_of_the_explored_corpora(
        self, explored_corpora, minimal_one
    ):
        names = minimal_one.workflow.activity_names()
        seen = set()
        for traces in explored_corpora.sets.values():
            for trace in traces:
                for config in trace.configurations():
                    if id(config) not in seen:
                        seen.add(id(config))
                        assert_resolves_as_listed(config, names)
        assert len(seen) > 100

    def test_resolves_as_listed_for_forged_snapshots(self):
        bound = WsBinding("svc-1", QoSSpec(1, 1))
        odd = ActivityActor(5, "c1", None, None, None, ActivityState.INVOKING, bound)
        plain = ActivityActor.initial("A:B", "c1")
        instance = WsoInstance(make_request(), InstanceState.SERVICING, (odd, plain))
        config = Configuration(
            actors=(
                (instance_address("c1"), instance),
                # An instance at the empty client id, and snapshots of the wrong type.
                (instance_address(""), dataclasses.replace(instance, activities=(plain,))),
                (instance_address("c2"), ClientRecord("c2")),
                (client_address("c3"), instance),
                ("bogus:x", ClientRecord("x")),
            )
        )
        assert_resolves_as_listed(
            config,
            ("A", "A:B", "5", 5),
            extra={"aa:c1", "ws:c1", "aa:c1:", "aa:c1:5", "ws:c1:5", "aa::A:B", "aa:", "bogus:x"},
        )
        assert resolves(config, "ws:c1:5") and not resolves(config, "ws:c1:A:B")


def resolvable_addresses(address: str, snapshot) -> list[str]:
    """The message addresses an actor makes resolvable: its own, at a role
    that holds a snapshot, and an instance's activity and bound service
    addresses, which parse back to it only when its client id has no ':'."""
    role = support.reference_address(address)[0]
    if role not in (Role.MANAGER, Role.SELECTOR, Role.CLIENT, Role.INSTANCE):
        return []
    addresses = [address]
    client_id = address.partition(":")[2]
    if (
        isinstance(snapshot, WsoInstance)
        and address == instance_address(client_id)
        and ":" not in client_id
    ):
        for aa in snapshot.activities:
            addresses.append(activity_address(client_id, aa.aa_name))
            if aa.ws.bound:
                addresses.append(service_address(client_id, aa.aa_name))
    return addresses


def assert_resolves_as_listed(config, names, extra=()) -> None:
    """resolves agrees with membership in the addresses some actor lists,
    over the pool and actor addresses, bare prefixes, foreign client ids,
    client ids that contain ':', and the activity and service addresses of
    every client id and activity name, whether bound or not."""
    resolvable = {
        resolved
        for address, snapshot in config.actors
        for resolved in resolvable_addresses(address, snapshot)
    }
    candidates = {address for address, _ in config.actors} | set(extra)
    for message in config.undelivered:
        candidates |= {message.sender, message.receiver}
    candidates |= {"aa", "ws", "ca", "wsoi", "aa:", "bogus:c1"}
    client_ids = {support.reference_address(address)[1] for address in candidates} - {None}
    for client_id in client_ids | {"zz"} | {f"{cid}:{n}" for cid in client_ids for n in names}:
        candidates |= {client_address(client_id), instance_address(client_id)}
        for aa_name in names:
            candidates.add(activity_address(client_id, aa_name))
            candidates.add(service_address(client_id, aa_name))
    for address in candidates:
        assert resolves(config, address) == (address in resolvable), address


def sample_message(kind: MessageKind) -> Message:
    cid = "c1"
    qos = QoSSpec(100, 10)
    samples = {
        MessageKind.WSO_REQUEST: Message(
            kind, client_address(cid), WSOIM_ADDRESS, cid, ontology="Shop", qos=qos, params=()
        ),
        MessageKind.SELECT: Message(
            kind, instance_address(cid), SS_ADDRESS, cid, ontology="Shop", qos=qos
        ),
        MessageKind.SELECT_REPLY_GRANTED: Message(
            kind, SS_ADDRESS, instance_address(cid), cid, assignment=()
        ),
        MessageKind.SELECT_REPLY_DENIED: Message(kind, SS_ADDRESS, instance_address(cid), cid),
        MessageKind.INVOKE: Message(kind, instance_address(cid), activity_address(cid, "A"), cid),
        MessageKind.INVOKE_ACK: Message(kind, activity_address(cid, "A"), instance_address(cid), cid),
        MessageKind.INVOKE_WS: Message(
            kind, activity_address(cid, "A"), service_address(cid, "A"), cid, params=()
        ),
        MessageKind.INVOKE_REPLY: Message(
            kind, service_address(cid, "A"), activity_address(cid, "A"), cid, params=()
        ),
        MessageKind.NOTIFY: Message(
            kind,
            activity_address(cid, "A"),
            instance_address(cid),
            cid,
            aa_name="A",
            aa_state=ActivityState.RETURNED,
        ),
        MessageKind.GRANTED_REPLY: Message(
            kind, instance_address(cid), client_address(cid), cid, ontology="Shop", qos=qos
        ),
        MessageKind.COMPLETED_REPLY: Message(
            kind, instance_address(cid), client_address(cid), cid, ontology="Shop", qos=qos, params=()
        ),
        MessageKind.DENIED_REPLY: Message(
            kind, instance_address(cid), client_address(cid), cid, ontology="Shop", qos=qos
        ),
    }
    return samples[kind]


class TestMessageVocabulary:
    @pytest.mark.parametrize("kind", list(MessageKind))
    def test_every_kind_has_a_conforming_shape(self, kind):
        assert message_schema_error(sample_message(kind)) is None

    def test_inverted_notify_direction_is_rejected(self):
        bad = Message(
            MessageKind.NOTIFY,
            instance_address("c1"),
            activity_address("c1", "A"),
            "c1",
            aa_name="A",
            aa_state=ActivityState.RETURNED,
        )
        error = message_schema_error(bad)
        assert error is not None and "sent by" in error

    def test_missing_payload_is_rejected(self):
        bad = Message(MessageKind.SELECT, instance_address("c1"), SS_ADDRESS, "c1")
        assert "requires payload" in message_schema_error(bad)

    def test_extra_payload_is_rejected(self):
        bad = Message(
            MessageKind.INVOKE,
            instance_address("c1"),
            activity_address("c1", "A"),
            "c1",
            params=(),
        )
        assert "must not carry" in message_schema_error(bad)

    def test_client_id_must_match_addresses(self):
        bad = Message(MessageKind.SELECT, instance_address("c1"), SS_ADDRESS, "c2",
                      ontology="Shop", qos=QoSSpec(1, 1))
        assert "does not match" in message_schema_error(bad)

    def test_notify_must_report_returned(self):
        bad = Message(
            MessageKind.NOTIFY,
            activity_address("c1", "A"),
            instance_address("c1"),
            "c1",
            aa_name="A",
            aa_state=ActivityState.INVOKING,
        )
        assert "Returned" in message_schema_error(bad)


class TestConfigurationAccessors:
    def make_config(self, *instances: WsoInstance, pool=()):
        actors = [(instance_address(i.client_id), i) for i in instances]
        return Configuration(actors=tuple(actors), undelivered=pool)

    def test_get_wsoi_absent_and_present(self):
        empty = Configuration(actors=())
        assert get_wsoi(empty, "c1") is None
        one = WsoInstance.create(make_request("c1"), ["A"])
        two = WsoInstance.create(make_request("c2"), ["A"])
        config = self.make_config(one, two)
        assert get_wsoi(config, "c2") == two
        assert get_wsoi(config, "c3") is None

    def test_get_aa(self):
        instance = WsoInstance.create(make_request(), ["Get Pays", "Send Price of Books"])
        assert get_aa(instance, "Get Pays").aa_name == "Get Pays"
        assert get_aa(instance, "missing") is None

    def test_changes_are_added_removed_and_replaced_actors_by_address(self):
        kept = WsoInstance.create(make_request("c1"), ["A"])
        removed = WsoInstance.create(make_request("c2"), ["A"])
        replaced = WsoInstance.create(make_request("c3"), ["A"])
        source = self.make_config(replaced, kept, removed)
        granted = dataclasses.replace(replaced, state=InstanceState.GRANTED)
        equal_copy = dataclasses.replace(kept)
        assert equal_copy == kept and equal_copy is not kept
        added = ClientRecord("c0")
        target = Configuration(
            actors=(
                (instance_address("c3"), granted),
                (instance_address("c1"), equal_copy),
                (client_address("c0"), added),
            )
        )
        assert source.changes(target) == [
            (client_address("c0"), None, added),
            (instance_address("c2"), removed, None),
            (instance_address("c3"), replaced, granted),
        ]
        assert target.changes(source) == [
            (client_address("c0"), added, None),
            (instance_address("c2"), None, removed),
            (instance_address("c3"), granted, replaced),
        ]
        assert source.changes(source) == []
        assert Configuration(actors=()).changes(source) == [
            (address, None, snapshot) for address, snapshot in source.actors
        ]

    def test_duplicate_addresses_rejected(self):
        instance = WsoInstance.create(make_request(), ["A"])
        with pytest.raises(ValueError):
            Configuration(
                actors=(
                    (instance_address("c1"), instance),
                    (instance_address("c1"), instance),
                )
            )


class TestCanonicalPool:
    """The pool is a set of per-channel FIFO queues: only the order within a
    channel is part of a configuration."""

    # Two invocations on one channel, in this order, and one on another.
    first = Message(MessageKind.INVOKE_WS, activity_address("c1", "A"), service_address("c1", "A"),
                    "c1", params={"n": "1"})
    second = dataclasses.replace(first, params={"n": "2"})
    other = sample_message(MessageKind.INVOKE)

    def test_order_across_channels_is_not_part_of_equality(self):
        left = Configuration(actors=(), undelivered=(self.first, self.other, self.second))
        right = Configuration(actors=(), undelivered=(self.other, self.first, self.second))
        assert left == right
        assert hash(left) == hash(right)
        assert left.undelivered == right.undelivered

    def test_order_within_a_channel_is(self):
        left = Configuration(actors=(), undelivered=(self.first, self.other, self.second))
        right = Configuration(actors=(), undelivered=(self.second, self.other, self.first))
        assert left != right
        assert left.channel(self.first.sender, self.first.receiver) == (self.first, self.second)
        assert right.heads == tuple(sorted((self.second, self.other), key=Message.sort_key))


class TestTrace:
    def test_adjacency_enforced(self):
        instance = WsoInstance.create(make_request(), ["A"])
        config_a = Configuration(actors=((instance_address("c1"), instance),))
        config_b = Configuration(actors=())
        message = sample_message(MessageKind.INVOKE_ACK)
        transition = Transition(
            source=config_a, rule=RuleId.R3_INVOKE_ACK, message=message, target=config_a
        )
        with pytest.raises(ValueError):
            Trace(initial=config_b, steps=(transition,))
        trace = Trace(initial=config_a, steps=(transition,))
        assert trace.final == config_a
        assert len(trace) == 1
