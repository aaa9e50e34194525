"""A mutant gate: the conformance pyramid must catch a wrong engine.

Each mutant replaces the rows of a message kind in the engine's rule table
(``engine._RULES``) for one test, with a wrong applier or a wrong condition,
and the pyramid judges fresh output of the mutated engine: seeded runs and an
explored configuration graph, with no golden trace involved.  This is
mutation analysis (Jia and Harman, IEEE TSE 37(5), 2011) applied to the
checkers: a mutant the pyramid passes is a fault it cannot see.
"""

import dataclasses
import random

import pytest

from qosorch import engine
from qosorch.conformance import P_RULE_REPLAY, check_pyramid
from qosorch.model import ActivityState, InstanceState, MessageKind, RuleId, Trace

LAYERS = ("behavior", "system", "service")


def swapped(kind, rule, *, applier=None, fires=None):
    """The rows of kind with the applier or the condition of rule replaced."""
    return tuple(
        (r, applier or apply, fires or condition) if r is rule else (r, apply, condition)
        for r, apply, condition in engine._RULES[kind]
    )


def r4a_completes_empty(config, message, instance, aa, selector):
    """R4a with no outputs on the instance or in the completed reply."""
    completed, (reply,) = engine._apply_r4a(config, message, instance, aa, selector)
    return dataclasses.replace(completed, output_parameters=()), [
        dataclasses.replace(reply, params=())
    ]


def r8_ignores_inputs(config, message, instance, aa, selector):
    """R8 with a result that does not depend on the service's inputs."""
    return engine._apply_r8(config, dataclasses.replace(message, params=()), instance, aa, selector)


def r2b_routes_nothing(config, message, instance, aa, selector):
    """R2b giving no activity any of the request's inputs."""
    granted, emitted = engine._apply_r2b(config, message, instance, aa, selector)
    activities = tuple(dataclasses.replace(a, input_parameters=()) for a in granted.activities)
    return dataclasses.replace(granted, activities=activities), emitted


def r7_drops_result(config, message, instance, aa, selector):
    """R7 recording no outputs for the returned activity."""
    dropped = dataclasses.replace(message, params=None)
    return engine._apply_r7(config, dropped, instance, aa, selector)


def all_returned(config, message, instance, aa):
    return getattr(instance, "state", None) is InstanceState.SERVICING and all(
        a.state is ActivityState.RETURNED for a in instance.activities
    )


# Mutant -> the rows it gives some message kinds; every one must fail the
# pyramid.
MUTANTS = {
    "r4a-completes-with-empty-outputs": lambda: {
        MessageKind.NOTIFY: swapped(
            MessageKind.NOTIFY, RuleId.R4A_NOTIFY_ALL_RETURNED, applier=r4a_completes_empty
        ),
    },
    "r8-result-ignores-its-inputs": lambda: {
        MessageKind.INVOKE_WS: swapped(
            MessageKind.INVOKE_WS, RuleId.R8_WS_INVOKE, applier=r8_ignores_inputs
        ),
    },
    "r2b-routes-no-inputs": lambda: {
        MessageKind.SELECT_REPLY_GRANTED: swapped(
            MessageKind.SELECT_REPLY_GRANTED, RuleId.R2B_SELECT_GRANTED, applier=r2b_routes_nothing
        ),
    },
    # A wrong condition: R4a completes the instance once every activity has
    # returned, though other notifications may still be pending.  A
    # completed instance then takes the late acknowledgements and
    # notifications unchanged, so that the engine itself does not stop on
    # them.
    "r4a-completes-before-the-last-notification": lambda: {
        MessageKind.NOTIFY: (
            (RuleId.R4A_NOTIFY_ALL_RETURNED, engine._apply_r4a, all_returned),
            (
                RuleId.R4B_NOTIFY_SOME_PENDING,
                engine._apply_r4b,
                engine._in(InstanceState.SERVICING, InstanceState.COMPLETED),
            ),
        ),
        MessageKind.INVOKE_ACK: (
            *engine._RULES[MessageKind.INVOKE_ACK],
            (RuleId.R3_INVOKE_ACK, engine._apply_r4b, engine._in(InstanceState.COMPLETED)),
        ),
    },
}


@pytest.fixture(scope="module")
def run_fixtures(bookstore_feasible, pair_mixed):
    return (bookstore_feasible, pair_mixed)


def fresh_runs(fixture_sets):
    return [
        engine.run(f.workflow, f.registry, f.requests, seed)
        for f in fixture_sets
        for seed in range(3)
    ]


def failed_layers(verdict):
    return [layer for layer in LAYERS if not getattr(verdict, layer).passed]


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_the_pyramid_on_fresh_runs_and_graphs(
    name, monkeypatch, run_fixtures, minimal_two, pair_one
):
    for kind, rows in MUTANTS[name]().items():
        monkeypatch.setitem(engine._RULES, kind, rows)
    # One activity per instance sends one notification, so a notification
    # cannot complete an instance early in the minimal graph; the pair
    # graph has two.
    explored = pair_one if name == "r4a-completes-before-the-last-notification" else minimal_two
    graph = engine.explore_graph(
        explored.workflow, explored.registry, explored.requests, max_transitions=200
    )
    for checked in (fresh_runs(run_fixtures), graph):
        verdict = check_pyramid(checked)
        # Only the rule relation sees these faults: each grant stays within
        # budget and every lifecycle moves forward.
        assert failed_layers(verdict) == ["behavior"], verdict.violations[:3]
        assert {v.property_id for v in verdict.behavior.violations} == {P_RULE_REPLAY}


def test_notify_at_a_granted_instance_is_an_equivalent_mutant(
    monkeypatch, run_fixtures, minimal_two
):
    """R4b also firing while the instance is Granted changes nothing: each
    activity's acknowledgement precedes its notification on their channel,
    and moves the instance to Servicing, so no notification ever reaches a
    Granted instance.  The mutant's output is the correct engine's."""
    args = (minimal_two.workflow, minimal_two.registry, minimal_two.requests, 200)
    runs, traces = fresh_runs(run_fixtures), engine.explore(*args)
    monkeypatch.setitem(
        engine._RULES,
        MessageKind.NOTIFY,
        swapped(
            MessageKind.NOTIFY,
            RuleId.R4B_NOTIFY_SOME_PENDING,
            fires=engine._in(InstanceState.GRANTED, InstanceState.SERVICING),
        ),
    )
    assert fresh_runs(run_fixtures) == runs
    assert engine.explore(*args) == traces


def test_r7_dropping_the_result_stops_the_engine_and_fails_behavior_before(
    monkeypatch, bookstore_feasible
):
    """R7 returning no outputs leaves R4a unable to fire, so the instance
    ends Servicing and the engine writes no trace; the transitions it took
    are already outside the rule relation at the first return."""
    monkeypatch.setitem(
        engine._RULES,
        MessageKind.INVOKE_REPLY,
        swapped(MessageKind.INVOKE_REPLY, RuleId.R7_AA_RETURN, applier=r7_drops_result),
    )
    f = bookstore_feasible
    with pytest.raises(engine.EngineError, match="in Servicing"):
        engine.run(f.workflow, f.registry, f.requests, seed=0)
    rng = random.Random(0)
    config = initial = engine.initial_configuration(f.workflow, f.registry, f.requests)
    steps = []
    while config.heads:
        transition = engine.step(config, config.heads[rng.randrange(len(config.heads))])
        steps.append(transition)
        config = transition.target
    returns = [i for i, t in enumerate(steps) if t.rule is RuleId.R7_AA_RETURN]
    verdict = check_pyramid([Trace(initial, steps)])
    assert (P_RULE_REPLAY, returns[0]) in {
        (v.property_id, v.transition_index) for v in verdict.behavior.violations
    }
