"""The qosorch benchmark.

    python3 qosbench/run.py --workload NAME --seed N --seconds S --trace {0|1}
    python3 qosbench/run.py --describe

Run from the repository root.  The benchmark generates the workload's JSONL
inputs from the seed, confirms their planted answers by enumeration, then
runs passes one at a time, each in a fresh interpreter, until S seconds have
been measured.  With --trace 0 every pass drives the `qosorch` CLI with
tracing off (full passes alternating with run-only passes on run
workloads) and the end-to-end metrics are medians over passes; with
--trace 1 one untraced pass is followed by traced passes whose per-layer
metrics are medians, and whose deterministic counts must agree.  The last
stdout line is the JSON result; the lines before it list every metric by
name with its unit.  Inputs and spans go under .qosbench-work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalog
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Relative to ROOT, where every process of a run works, and named without the
# seed: the paths handed to the CLI are then the same strings in every
# checkout and on every seed.  Longer or shorter path strings moved
# peak_rss_mb on fanout between 45 MB and 50 MB through the allocator.
WORK = Path(".qosbench-work")

# Setup-only interpreters started per untraced run (after one warm-up), so
# setup_s is a median over several fresh imports.
SETUP_PROBES = 9
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

# Every child is stopped so that the whole run ends within this many seconds.
RUN_LIMIT_S = 170
STARTED = time.monotonic()

# Counts that two traced passes of one seed must reproduce exactly.
DETERMINISTIC = (
    "engine.steps",
    "engine.explore_traces",
    "engine.explore_configs",
    "engine.pool_max",
    "conformance.oracle_calls",
    "formats.trace_mb",
)

COMPLETED = re.compile(r"^(\S+): Completed qos=\((\d+)ms<=(\d+)ms, (\d+)c<=(\d+)c\)$")
OTHER = re.compile(r"^(\S+): (\w+)$")


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failed operation)."""


# ---------------------------------------------------------------------------
# Inputs


def count_interleavings(shapes: list[tuple[int, bool]]) -> int:
    """The test suite's independent count of maximal traces."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import support
    finally:
        del sys.path[:2]
    return support.count_interleavings(shapes)


def prepare(workload: str, seed: int, work: Path) -> tuple[dict, list[str]]:
    """Write the inputs, return the pass spec and self-check problems."""
    if workload in workloads.RUN_WORKLOADS:
        kind = "run"
        orchestrations = workloads.generate(workload, seed)
        files = [workloads.write_orchestration(o, work) for o in orchestrations]
    else:
        kind = "explore"
        fixture = workloads.EXPLORE_WORKLOADS[workload]
        orchestrations = [workloads.load_fixture(fixture, f"{fixture}_requests_one.jsonl")]
        files = [workloads.copy_fixture(fixture, f"{fixture}_requests_one.jsonl", work)]
    entries = []
    for orch, orch_files in zip(orchestrations, files):
        entry = {
            "name": orch.ontology,
            "files": orch_files,
            "planted": {r.client_id: [r.feasible, r.response_time_ms, r.cost_cents] for r in orch.requests},
        }
        if kind == "explore":
            shapes = [(len(orch.activities), r.feasible) for r in orch.requests]
            entry["expected_traces"] = count_interleavings(shapes)
            # create, select, reply; then invoke, call, reply, ack, notify per activity.
            entry["transitions_per_trace"] = sum(3 + 5 * k if ok else 3 for k, ok in shapes)
        entries.append(entry)
    spec = {
        "kind": kind,
        "seed": seed,
        "scheduler_seed": workloads.SCHEDULER_SEED,
        "work": str(work),
        "orchestrations": entries,
    }
    return spec, workloads.self_check(orchestrations)


# ---------------------------------------------------------------------------
# Child processes


def child(mode: str, spec_path: Path, pass_id: str) -> tuple[dict, float]:
    """Run one pass in a fresh interpreter; return its result and wall time."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, str(spec_path), pass_id],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, RUN_LIMIT_S - (start - STARTED)),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass {pass_id} ran past the {RUN_LIMIT_S}s run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} pass {pass_id} exited {proc.returncode}: {proc.stderr[-1500:]}")
    return json.loads(lines[-1]), time.monotonic() - start


def repeat(modes: tuple[str, ...], spec_path: Path, seconds: float, minimum: int) -> list[dict]:
    """Passes in the given modes, in turn, until `seconds` are spent and at
    least `minimum` passes of each mode have run; a further pass starts only
    if it is expected to end within half a pass of the deadline."""
    deadline = time.monotonic() + seconds
    results: list[dict] = []
    walls: dict[str, list[float]] = {mode: [] for mode in modes}
    while True:
        mode = modes[len(results) % len(modes)]
        expected = statistics.fmean(walls[mode] or walls[modes[0]] or [0.0])
        if len(results) >= minimum * len(modes) and time.monotonic() + expected / 2 >= deadline:
            return results
        result, wall = child(mode, spec_path, f"{mode}{len(results)}")
        results.append(result)
        walls[mode].append(wall)


# ---------------------------------------------------------------------------
# Judging outcomes


def parse_outcomes(stdout: str) -> dict[str, tuple]:
    outcomes = {}
    for line in stdout.splitlines():
        match = COMPLETED.match(line)
        if match:
            cid, worst, bound, total, budget = match.groups()
            outcomes[cid] = ("Completed", int(worst), int(total), int(bound), int(budget))
            continue
        match = OTHER.match(line)
        if match:
            outcomes[match.group(1)] = (match.group(2),)
    return outcomes


def outcome_ok(outcome, planted) -> bool:
    """Planted feasible requests complete within their own budget; planted
    infeasible ones are denied."""
    feasible, rt, cost = planted
    if outcome is None:
        return False
    if not feasible:
        return outcome[0] == "Denied"
    if outcome[0] != "Completed":
        return False
    worst, total = outcome[1], outcome[2]
    echoed = outcome[3:] or (rt, cost)
    return worst <= rt and total <= cost and tuple(echoed) == (rt, cost)


def wrong_requests(planted: dict, outcomes: dict) -> list[str]:
    return [cid for cid, answer in planted.items() if not outcome_ok(outcomes.get(cid), answer)]


def judge_pass(spec: dict, result: dict, clock: str = "seconds") -> dict:
    """Operation counts and timings of one untraced pass, with CLI calls
    timed by `clock`: "seconds" (wall time less steal time) or "wall_s"
    (wall time).  A run-only pass has no check_s and no verdict_s."""
    attempted = failed = terminal = transitions = 0
    run_s = check_s = 0.0
    for orch, call in zip(spec["orchestrations"], result["calls"]):
        if spec["kind"] == "explore":
            explore = call["explore"]
            expected = [f"traces: {orch['expected_traces']}", "behavior: pass", "system: pass", "service: pass"]
            attempted += 1
            failed += not (explore["code"] == 0 and explore["stdout"].splitlines() == expected)
            run_s += explore[clock]
            check_s += explore[clock]
            terminal += orch["expected_traces"] * len(orch["planted"])
            transitions += orch["expected_traces"] * orch["transitions_per_trace"]
            continue
        planted = orch["planted"]
        outcomes = parse_outcomes(call["run"]["stdout"])
        wrong = wrong_requests(planted, outcomes)
        cli_ok = call["run"]["code"] == 0
        if "check" in call:
            # The pyramid must flag a wrong outcome, and only then.
            cli_ok = (
                cli_ok
                and call["check"]["code"] == (4 if wrong else 0)
                and call["check"]["stdout"].startswith("traces: 1\n")
            )
            transitions += call["transitions"]
            check_s += call["check"][clock]
        attempted += len(planted)
        failed += len(wrong) if cli_ok else len(planted)
        terminal += sum(1 for o in outcomes.values() if o[0] in ("Completed", "Denied"))
        run_s += call["run"][clock]
    full = spec["kind"] == "explore" or "check" in result["calls"][0]
    return {
        "attempted": attempted,
        "failed": failed,
        "run_s": run_s,
        "run_requests_per_s": terminal / run_s,
        "check_s": check_s if full else None,
        "check_transitions_per_s": transitions / check_s if full else None,
        "verdict_s": (run_s if spec["kind"] == "explore" else run_s + check_s) if full else None,
        "peak_rss_mb": result["peak_rss_mb"] if full else None,
    }


def end_to_end_metrics(spec: dict, judged: list[dict]) -> dict:
    """Medians over the judged passes of one run.  On a run workload,
    verdict_s is the median `run` time (every pass) plus the median `check`
    time (full passes); on explore-pair it is the median `explore` time."""
    full = [j for j in judged if j["check_s"] is not None]
    if spec["kind"] == "explore":
        verdict_s = statistics.median(j["verdict_s"] for j in full)
    else:
        verdict_s = statistics.median(j["run_s"] for j in judged) + statistics.median(j["check_s"] for j in full)
    return {
        "verdict_s": verdict_s,
        "run_requests_per_s": statistics.median(j["run_requests_per_s"] for j in judged),
        "check_transitions_per_s": statistics.median(j["check_transitions_per_s"] for j in full),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in full),
    }


def judge_traced(spec: dict, result: dict) -> tuple[int, int]:
    """(attempted, failed) of one traced pass: workload outcomes, layer
    verdicts and the sweep's planted answers."""
    attempted = failed = 0
    for orch, verdict in zip(spec["orchestrations"], result["verdicts"]):
        if spec["kind"] == "explore":
            attempted += 1
            failed += not (verdict["traces"] == orch["expected_traces"] and all(verdict["layers"]))
            continue
        planted = orch["planted"]
        outcomes = {cid: tuple(o) for cid, o in result["outcomes"][orch["name"]].items()}
        wrong = wrong_requests(planted, outcomes)
        checker_ok = all(verdict["layers"]) == (not wrong)
        attempted += len(planted)
        failed += len(wrong) if checker_ok else len(planted)
    for results in result["sweep"].values():
        for r in results:
            attempted += 1
            answer = (r["feasible"], *r["budget"])
            outcome = ("Completed", *r["aggregate"]) if r["granted"] else ("Denied",)
            failed += not outcome_ok(outcome, answer)
    return attempted, failed


# ---------------------------------------------------------------------------
# Modes


def measure_end_to_end(spec: dict, spec_path: Path, seconds: int) -> tuple[dict, int, int]:
    child("setup", spec_path, "warmup")
    start = time.monotonic()
    setups = [child("setup", spec_path, f"setup{i}")[0]["setup_s"] for i in range(SETUP_PROBES)]
    # On run workloads, full passes alternate with run-only passes: `check`
    # takes about three times as long as `run`, and this evens out how often
    # each is sampled.
    modes = ("pass",) if spec["kind"] == "explore" else ("pass", "run")
    passes = repeat(modes, spec_path, seconds - (time.monotonic() - start), MIN_PASSES)
    setups += [p["setup_s"] for p in passes]
    judged = [judge_pass(spec, p) for p in passes]
    metrics = end_to_end_metrics(spec, judged)
    metrics["setup_s"] = statistics.median(setups)
    walls = end_to_end_metrics(spec, [judge_pass(spec, p, "wall_s") for p in passes])
    calls = [c for p in passes for orch in p["calls"] for c in orch.values() if isinstance(c, dict)]
    stolen, wall = sum(c["stolen_s"] for c in calls), sum(c["wall_s"] for c in calls)
    print(f"{len(passes)} passes; steal time excluded from CLI calls: {stolen:.2f} s of {wall:.2f} s ({stolen / wall:.1%})")
    for name in ("verdict_s", "run_requests_per_s", "check_transitions_per_s"):
        print(f"{name} with steal time included = {walls[name]:.6g}")
    return metrics, sum(j["attempted"] for j in judged), sum(j["failed"] for j in judged)


def measure_per_layer(spec: dict, spec_path: Path, seconds: int) -> tuple[dict, int, int, list[str]]:
    start = time.monotonic()
    untraced, _ = child("pass", spec_path, "untraced")
    # Spans are plain wall time, so the untraced verdict is taken the same way.
    untraced_verdict_s = judge_pass(spec, untraced, "wall_s")["verdict_s"]
    traced = repeat(("traced",), spec_path, seconds - (time.monotonic() - start), MIN_TRACED_PASSES)
    names = traced[0]["metrics"]
    metrics = {name: statistics.median(t["metrics"][name] for t in traced) for name in names}
    metrics["tracing.untraced_verdict_s"] = untraced_verdict_s
    metrics["tracing.overhead_share"] = metrics["tracing.verdict_s"] / untraced_verdict_s - 1.0
    problems = [
        f"{name} differs between traced passes: {[t['metrics'][name] for t in traced]}"
        for name in DETERMINISTIC
        if len({t["metrics"][name] for t in traced}) != 1
    ]
    counts = [judge_traced(spec, t) for t in traced]
    return metrics, sum(a for a, _ in counts), sum(f for _, f in counts), problems


# ---------------------------------------------------------------------------
# Reporting


def load_declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def machine() -> dict:
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def describe() -> None:
    declared = load_declared()
    print("machine:", json.dumps(machine()))
    for workload in declared["workloads"]:
        name = workload["name"]
        print(f"\nworkload {name}: {workload['why']}")
        for key, value in catalog.WORKLOADS[name].items():
            print(f"  {key}: {value}")
    print("\nend-to-end metrics (--trace 0), medians over untraced passes:")
    for metric in declared["end_to_end"]:
        print(f"  {metric['name']} [{metric['unit']}] {metric['better']} is better, bound {metric['bound']}")
        for feed in catalog.FEEDS[metric["name"]]:
            print(f"    fed by {feed}")
    print(f"  {catalog.FAILED_SHARE}")
    print("\nper-layer metrics (--trace 1), medians over traced passes:")
    for metric in declared["per_layer"]:
        print(f"  {metric['name']} [{metric['unit']}] {metric['better']} is better")


def report(metrics: dict, declared: list[dict], correct: bool, attempted: int, failed: int) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise BenchError(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"failed_share = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(f"machine = {json.dumps(machine())}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true", help="print every metric and workload, then exit")
    args = parser.parse_args(argv)
    if args.describe:
        describe()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "qosorch" / "__init__.py").is_file():
        print(f"error: no qosorch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    declared = load_declared()
    os.chdir(ROOT)
    work = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec, problems = prepare(args.workload, args.seed, work)
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        if args.trace:
            metrics, attempted, failed, nondeterminism = measure_per_layer(spec, spec_path, args.seconds)
            problems += nondeterminism
            metric_list = declared["per_layer"]
        else:
            metrics, attempted, failed = measure_end_to_end(spec, spec_path, args.seconds)
            metric_list = declared["end_to_end"]
        for problem in problems:
            print(f"check failed: {problem}")
        report(metrics, metric_list, not problems, attempted, failed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for trace_file in work.glob("*_trace.jsonl"):
            trace_file.unlink()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
