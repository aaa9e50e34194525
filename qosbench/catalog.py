"""What each workload is and which layer metrics feed each end-to-end metric.

Names, units, better-directions and bounds live in BENCHMARK.json at the
repository root; this module adds the provenance `run.py --describe` prints.
"""

from __future__ import annotations

WORKLOADS = {
    "fanout": {
        "loop": "offline batch: all N requests submitted together, `run` drains them",
        "n": "40 requests, 1 orchestration",
        "shapes": "6 activities x 2 candidates (64 combinations, exact path)",
        "budgets": "4 classes with one budget each, assigned round-robin: 12 loose, 10 basic, 10 tight, 8 infeasible (80% feasible)",
        "seed": "draws candidate QoS and the class budgets; class order and the run scheduler seed (0) are fixed",
    },
    "admission": {
        "loop": "offline batch, two orchestrations run back to back",
        "n": "35 + 35 requests",
        "shapes": "6x4 (4,096 combinations, exact path) then 7x4 (16,384, greedy path)",
        "budgets": "per orchestration, assigned round-robin: 7 loose, 14 tight (only the all-fast pick fits), 14 infeasible; each drawn on its own",
        "seed": "draws candidate QoS and every budget; class order and the run scheduler seed (0) are fixed",
    },
    "explore-pair": {
        "loop": "one exhaustive exploration of every interleaving",
        "n": "1 request; 2,268 maximal traces over 135 configurations",
        "shapes": "shipped `pair` fixture, 2 activities x 2 candidates, pair_requests_one.jsonl",
        "budgets": "the fixture's one feasible request",
        "seed": "does not change the inputs (the fixture is fixed); recorded for uniformity",
    },
}

# End-to-end metric -> the layer metrics expected to move it, and where.
FEEDS = {
    "setup_s": [
        "registry.load_s, model.config_actors_max (all workloads)",
    ],
    "verdict_s": [
        "engine.run_s, engine.step_us_*, engine.enabled_us_*, engine.pool_max, engine.enabled_max (fanout; small on admission)",
        "selection.alloc_us_*, selection.calls, selection.combinations (admission)",
        "conformance.behavior_s, conformance.behavior_us_per_transition (fanout, explore-pair)",
        "conformance.service_s, conformance.oracle_s, conformance.oracle_calls (admission)",
        "formats.write_s, formats.read_s, formats.trace_mb (fanout)",
        "engine.explore_s, engine.explore_traces, engine.explore_configs, engine.explore_useful_ratio (explore-pair)",
        "model.trace_build_s, registry.load_s (all workloads)",
    ],
    "run_requests_per_s": [
        "engine.run_s, engine.step_us_*, engine.enabled_us_*, engine.pool_max (fanout)",
        "selection.alloc_us_*, selection.repeat_share, selection.shape.*_us (admission; no change on fanout)",
        "on explore-pair: terminal replies reached across explored traces per second of `explore` (tracks verdict_s)",
    ],
    "check_transitions_per_s": [
        "conformance.behavior_us_per_transition, formats.read_records_per_s, formats.read_s (fanout)",
        "conformance.service_s, conformance.oracle_s (admission)",
        "on explore-pair: transitions explored and checked per second of `explore` (tracks verdict_s)",
    ],
    "peak_rss_mb": [
        "engine.pool_max, model.config_actors_max, formats.trace_mb (fanout); engine.explore_traces (explore-pair)",
    ],
}

FAILED_SHARE = (
    "failed_share = failed / attempted from the result line.  Run workloads: one operation per "
    "request, failed when its outcome line differs from the planted answer or a CLI call exits "
    "other than expected (check must exit 4 exactly when some outcome is wrong).  explore-pair: one "
    "operation per exploration, failed unless exit 0, `traces: 2268` and all three layers pass."
)
