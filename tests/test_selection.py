import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from qosorch import engine
from qosorch.conformance import check_pyramid
from qosorch.model import AllocatedBinding, QoSSpec, WorkflowDef, WsoRequest, freeze_params
from qosorch.registry import Registry
from qosorch.selection import (
    AllocationResult,
    CandidateService,
    IncompleteOutputsError,
    UnknownOntologyError,
    aggregate_qos,
    map_input_parameters,
    map_output_parameters,
    qos_allocate,
)

qos_values = st.builds(
    QoSSpec, st.integers(0, 10**6), st.integers(0, 10**6)
)


class TestAggregate:
    def test_examples(self):
        assert aggregate_qos(
            [QoSSpec(100, 5), QoSSpec(250, 4), QoSSpec(80, 8)]
        ) == QoSSpec(250, 17)
        assert aggregate_qos([]) == QoSSpec(0, 0)
        assert aggregate_qos([QoSSpec(7, 7)]) == QoSSpec(7, 7)

    @given(st.lists(qos_values, max_size=8))
    def test_matches_fold_oracle(self, specs):
        worst, total = 0, 0
        for spec in specs:
            if spec.response_time_ms > worst:
                worst = spec.response_time_ms
            total += spec.cost_cents
        assert aggregate_qos(specs) == QoSSpec(worst, total)


def cand(cid, ontology, rt, cost):
    return CandidateService(cid, ontology, QoSSpec(rt, cost))


AB_CANDIDATES = [
    cand("a1", "A", 100, 5),
    cand("a2", "A", 50, 9),
    cand("b1", "B", 200, 4),
    cand("b2", "B", 120, 8),
]
AB_REGISTRY = Registry.from_candidates(AB_CANDIDATES)
AB_ACTIVITIES = [("act-a", "A"), ("act-b", "B")]


class TestAllocate:
    def test_unique_feasible_assignment(self):
        # Oracle check: of the four combinations only (a1, b2) fits (150, 14).
        slots = [[c for c in AB_CANDIDATES if c.ontology == o] for o in ("A", "B")]
        feasible = list(support.oracle_feasible_combos(QoSSpec(150, 14), slots))
        assert len(feasible) == 1
        assert tuple(c.candidate_id for c in feasible[0][0]) == ("a1", "b2")

        result = qos_allocate(QoSSpec(150, 14), AB_ACTIVITIES, AB_REGISTRY)
        assert result.granted
        assert [(b.aa_name, b.candidate_id) for b in result.per_activity] == [
            ("act-a", "a1"),
            ("act-b", "b2"),
        ]
        assert result.aggregate() == QoSSpec(120, 13)

    def test_denied_when_nothing_fits(self):
        slots = [[c for c in AB_CANDIDATES if c.ontology == o] for o in ("A", "B")]
        assert not support.oracle_any_feasible(QoSSpec(60, 100), slots)
        result = qos_allocate(QoSSpec(60, 100), AB_ACTIVITIES, AB_REGISTRY)
        assert not result.granted
        assert result.per_activity is None

    def test_boundary_is_inclusive(self):
        result = qos_allocate(
            QoSSpec(10, 1), [("a", "X")], Registry.from_candidates([cand("x1", "X", 10, 1)])
        )
        assert result.granted

    def test_unknown_ontology_is_an_error_not_a_denial(self):
        with pytest.raises(UnknownOntologyError):
            qos_allocate(QoSSpec(10, 10), [("a", "Missing")], AB_REGISTRY)
        # Also when an earlier activity alone would deny (no A within 10ms).
        with pytest.raises(UnknownOntologyError):
            qos_allocate(QoSSpec(10, 10), [("a", "A"), ("b", "Missing")], AB_REGISTRY)

    def test_requires_activities(self):
        with pytest.raises(ValueError):
            qos_allocate(QoSSpec(10, 10), [], AB_REGISTRY)

    def test_deterministic(self):
        first = qos_allocate(QoSSpec(150, 14), AB_ACTIVITIES, AB_REGISTRY)
        second = qos_allocate(QoSSpec(150, 14), AB_ACTIVITIES, AB_REGISTRY)
        assert first == second

    def test_allocation_result_shape_enforced(self):
        with pytest.raises(ValueError):
            AllocationResult(granted=True, per_activity=None)
        with pytest.raises(ValueError):
            AllocationResult(granted=False, per_activity=())

    def test_ties_break_by_worst_time_then_ids(self):
        # Both ontologies have two cheapest (1c) candidates.  The least worst
        # time is 20ms, set by o1b; below it o0a and o0b both fit and the
        # smaller id wins although o0b is faster.
        candidates = [
            cand("o0a", "O0", 10, 1),
            cand("o0b", "O0", 5, 1),
            cand("o0c", "O0", 1, 2),
            cand("o1a", "O1", 40, 1),
            cand("o1b", "O1", 20, 1),
        ]
        activities = [("a", "O0"), ("b", "O1")]
        budget = QoSSpec(70, 30)
        slots = [[c for c in candidates if c.ontology == o] for _, o in activities]
        expected = [c.candidate_id for c in support.oracle_best(budget, slots)]
        assert expected == ["o0a", "o1b"]
        result = qos_allocate(budget, activities, Registry.from_candidates(candidates))
        assert [b.candidate_id for b in result.per_activity] == expected
        assert result.aggregate() == QoSSpec(20, 2)

    @given(
        st.integers(1, 4),
        st.integers(1, 5),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_oracle(self, n_ontologies, n_activities, data):
        candidates = []
        for o in range(n_ontologies):
            for c in range(data.draw(st.integers(1, 4))):
                # Narrow ranges make ties in cost and in time common.
                rt = data.draw(st.integers(0, 5)) * 10
                cost = data.draw(st.integers(0, 3))
                candidates.append(cand(f"o{o}c{c}", f"O{o}", rt, cost))
        # Activities may share an ontology.
        activities = [
            (f"act{a}", f"O{data.draw(st.integers(0, n_ontologies - 1))}")
            for a in range(n_activities)
        ]
        budget = QoSSpec(data.draw(st.integers(0, 60)), data.draw(st.integers(0, 20)))

        slots = [[c for c in candidates if c.ontology == o] for _, o in activities]
        expected = support.oracle_best(budget, slots)
        result = qos_allocate(budget, activities, Registry.from_candidates(candidates))
        assert result.granted == (expected is not None)
        if result.granted:
            assert list(result.per_activity) == [
                AllocatedBinding(name, c.candidate_id, c.qos)
                for (name, _), c in zip(activities, expected)
            ]

    def test_tight_budget_on_a_wide_registry_grants_the_all_fast_pick(self):
        # 7 ontologies x 4 candidates (16,384 combinations).  Each ontology
        # has one fast candidate (50ms, 5c); the others are cheaper but take
        # at least 100ms, so only the all-fast pick (50ms, 35c) fits.
        registry = Registry.from_candidates(
            [cand(f"o{o}fast", f"O{o}", 50, 5) for o in range(7)]
            + [cand(f"o{o}slow{c}", f"O{o}", 100 + c, 1 + c) for o in range(7) for c in range(3)]
        )
        workflow = WorkflowDef("Wide", tuple((f"act{o}", f"O{o}") for o in range(7)))
        tight = QoSSpec(60, 35)
        result = qos_allocate(tight, workflow.activities, registry)
        assert result.granted
        assert [b.candidate_id for b in result.per_activity] == [
            f"o{o}fast" for o in range(7)
        ]
        assert result.aggregate() == QoSSpec(50, 35)

        requests = [
            WsoRequest("tight", "Wide", (), tight),
            WsoRequest("short", "Wide", (), QoSSpec(60, 34)),
        ]
        trace = engine.run(workflow, registry, requests, seed=0)
        verdict = check_pyramid([trace])
        assert verdict.passed, verdict.violations
        states = {i.client_id: i.state.value for _, i in trace.final.instances()}
        assert states == {"tight": "Completed", "short": "Denied"}


class TestInputMapping:
    def test_prefixed_key_routes_to_one_activity(self):
        names = [
            "Send List of Books",
            "Receive Selected Books",
            "Calculate the Price",
            "Send Price of Books",
            "Get Pays",
            "Ship by Train or Ship by Air",
        ]
        routed = map_input_parameters(freeze_params({"Get Pays.amount": "120"}), names)
        assert routed["Get Pays"] == (("amount", "120"),)
        for name in names:
            if name != "Get Pays":
                assert routed[name] == ()

    def test_empty_inputs_reach_everyone_empty(self):
        routed = map_input_parameters((), ["A", "B"])
        assert routed == {"A": (), "B": ()}

    def test_unprefixed_keys_broadcast(self):
        routed = map_input_parameters(freeze_params({"currency": "USD"}), ["A", "B"])
        assert routed["A"] == (("currency", "USD"),)
        assert routed["B"] == (("currency", "USD"),)

    def test_longest_matching_name_wins(self):
        routed = map_input_parameters(freeze_params({"A.B.x": "1"}), ["A", "A.B"])
        assert routed["A.B"] == (("x", "1"),)
        assert routed["A"] == ()

    @given(
        st.dictionaries(
            st.text(alphabet="abcxyz", min_size=1, max_size=5), st.text(max_size=4), max_size=5
        ),
        st.lists(st.sampled_from(["P", "Q", "R"]), min_size=1, max_size=3, unique=True),
    )
    def test_every_input_lands_somewhere(self, inputs, names):
        routed = map_input_parameters(freeze_params(inputs), names)
        landed = set()
        for params in routed.values():
            landed.update(key for key, _ in params)
        for key in inputs:
            suffix = key.split(".", 1)[-1]
            assert key in landed or suffix in landed or any(
                key[len(n) + 1 :] in dict(routed[n]) for n in names if key.startswith(n + ".")
            )


class TestOutputMapping:
    def test_prefixes_keys(self):
        outputs = map_output_parameters({"Get Pays": freeze_params({"receipt": "r1"})})
        assert outputs == (("Get Pays.receipt", "r1"),)

    def test_nil_outputs_rejected(self):
        with pytest.raises(IncompleteOutputsError):
            map_output_parameters({"A": freeze_params({"x": "1"}), "B": None})

    def test_identical_inner_keys_do_not_collide(self):
        outputs = map_output_parameters(
            {"A": freeze_params({"x": "1"}), "B": freeze_params({"x": "2"})}
        )
        assert outputs == (("A.x", "1"), ("B.x", "2"))

    @given(
        st.dictionaries(
            st.sampled_from(["P", "Q", "R"]),
            st.dictionaries(
                st.text(alphabet="abc", min_size=1, max_size=3), st.text(max_size=3), max_size=4
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_lossless_and_injective(self, per_activity):
        frozen = {name: freeze_params(v) for name, v in per_activity.items()}
        merged = map_output_parameters(frozen)
        assert len(merged) == sum(len(v) for v in per_activity.values())
        for name, outputs in per_activity.items():
            for key, value in outputs.items():
                assert dict(merged)[f"{name}.{key}"] == value
