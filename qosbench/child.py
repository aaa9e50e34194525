"""One benchmark pass, run in a fresh interpreter:

    python3 qosbench/child.py {setup|pass|run|traced} SPEC.json PASS_ID

* setup  -- import qosorch, load the inputs, build the initial configuration;
* pass   -- setup, then the verdict through the stable CLI (`qosorch.cli.main`)
            with tracing off;
* run    -- setup, then only the `run` calls of a run workload, so that the
            short `run` is sampled more often than the long `check`;
* traced -- setup, then the same verdict by calling each layer directly under
            in-memory spans, plus step/enabled replay timing and the
            selection shape sweep.  Spans are written to SPEC's work directory.

The last line on stdout is one JSON object with the raw observations; the
parent judges correctness and aggregates.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer, patched

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Repetitions of each (shape, budget) selection in the sweep.
SWEEP_REPEATS = 5


def setup(spec: dict) -> float:
    """Seconds from before `import qosorch` until every orchestration's
    inputs are loaded and its initial configuration is built."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import qosorch
    from qosorch import engine, formats
    from qosorch.registry import load_registry

    for orch in spec["orchestrations"]:
        files = orch["files"]
        engine.initial_configuration(
            formats.load_workflow(files["workflow"]),
            load_registry(files["registry"]),
            formats.load_requests(files["requests"]),
        )
    elapsed = time.perf_counter() - start
    if Path(qosorch.__file__).resolve().parent != (SRC / "qosorch").resolve():
        raise SystemExit(f"qosorch was imported from {qosorch.__file__}, not from {SRC}")
    return elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Untraced pass through the CLI


def stolen_s() -> float:
    """Seconds the hypervisor has so far kept this machine's virtual CPUs
    from running while they had work (steal time), summed over CPUs; 0.0
    where the kernel does not report it.  The benchmark keeps the other
    cores idle while a call runs, so the steal accrued over a call is time
    the call waited for a CPU that the host had given to another tenant."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def cli_call(argv: list[str]) -> dict:
    """Run `qosorch ARGV` in-process; a crash is an outcome, not an error.

    `seconds` is the call's wall time less the steal time that accrued
    while it ran; `wall_s` and `stolen_s` keep both parts."""
    from qosorch import cli

    out, err = io.StringIO(), io.StringIO()
    stolen = stolen_s()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed call, reported as such
            code = f"crash: {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    stolen = stolen_s() - stolen
    return {
        "seconds": wall - stolen,
        "wall_s": wall,
        "stolen_s": stolen,
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
    }


def count_transitions(path: str) -> int:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError:
        return 0
    return sum(1 for line in lines if line.strip() and json.loads(line).get("record") == "transition")


def untraced_pass(spec: dict, check: bool) -> dict:
    """Setup, then the verdict through the CLI; with check=False, only the
    `run` calls of a run workload (a run-only pass)."""
    setup_s = setup(spec)
    # Start the calls from empty collector generations, so that what the
    # harness allocated before them cannot move a collection across the
    # peak and shift peak_rss_mb between seeds.
    gc.collect()
    calls = []
    for orch in spec["orchestrations"]:
        files = orch["files"]
        inputs = ["--workflow", files["workflow"], "--registry", files["registry"], "--requests", files["requests"]]
        if spec["kind"] == "explore":
            calls.append({"explore": cli_call(["explore", *inputs])})
        else:
            run = cli_call(["run", *inputs, "--seed", str(spec["scheduler_seed"]), "--trace-out", files["trace"]])
            calls.append({"run": run, "check": cli_call(["check", files["trace"]])} if check else {"run": run})
    # Read the high-water mark before the harness parses any trace file.
    rss = peak_rss_mb()
    for orch, call in zip(spec["orchestrations"], calls):
        if "check" in call:
            call["transitions"] = count_transitions(orch["files"]["trace"])
    return {"setup_s": setup_s, "calls": calls, "peak_rss_mb": rss}


# ---------------------------------------------------------------------------
# Traced pass


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values, q: int) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class SelectionRecorder:
    """The engine's default selector behind the public `selector=` hook,
    with each call recorded as a span."""

    def __init__(self, tracer: Tracer, engine) -> None:
        self.tracer = tracer
        self.engine = engine
        self.calls = 0
        self.granted = 0
        self.repeats = 0
        self.max_combinations = 0
        self._budgets: set = set()

    def __call__(self, request, workflow, registry):
        with self.tracer.span("selection.default_selector", client=request.client_id):
            result = self.engine.default_selector(request, workflow, registry)
        self.calls += 1
        self.granted += bool(result.granted)
        self.repeats += request.qos in self._budgets
        self._budgets.add(request.qos)
        combinations = 1
        for _, ontology in workflow.activities:
            combinations *= len(registry.query(ontology))
        self.max_combinations = max(self.max_combinations, combinations)
        return result


def _final_outcomes(trace) -> dict:
    outcomes = {}
    for _, instance in trace.final.instances():
        entry = [instance.state.value]
        if entry[0] == "Completed":
            bound = [aa.ws.advertised_qos for aa in instance.activities if aa.ws.bound]
            entry += [max(q.response_time_ms for q in bound), sum(q.cost_cents for q in bound)]
        outcomes[instance.client_id] = entry
    return outcomes


def _sweep(seed: int) -> dict:
    """Time the default selector on each sweep shape, one feasible and one
    infeasible budget, SWEEP_REPEATS times each."""
    from qosorch import engine
    from qosorch.model import QoSSpec, WorkflowDef, WsoRequest
    from qosorch.registry import Registry
    from qosorch.selection import CandidateService
    from workloads import sweep_orchestrations

    shapes = {}
    for orch in sweep_orchestrations(seed):
        registry = Registry.from_candidates(
            CandidateService(c.candidate_id, c.ontology, QoSSpec(c.response_time_ms, c.cost_cents))
            for c in orch.candidates
        )
        workflow = WorkflowDef(orch.ontology, orch.activities)
        medians, results = [], []
        for planted in orch.requests:
            request = WsoRequest(
                planted.client_id, orch.ontology, {}, QoSSpec(planted.response_time_ms, planted.cost_cents)
            )
            samples = []
            for _ in range(SWEEP_REPEATS):
                start = time.perf_counter()
                result = engine.default_selector(request, workflow, registry)
                samples.append(time.perf_counter() - start)
            medians.append(_median(samples))
            aggregate = result.aggregate() if result.granted else None
            results.append(
                {
                    "client_id": planted.client_id,
                    "feasible": planted.feasible,
                    "budget": [planted.response_time_ms, planted.cost_cents],
                    "granted": bool(result.granted),
                    "aggregate": None
                    if aggregate is None
                    else [aggregate.response_time_ms, aggregate.cost_cents],
                }
            )
        shape = f"{len(orch.activities)}x{len(orch.slots()[0])}"
        shapes[shape] = {"us": statistics.fmean(medians) * 1e6, "results": results}
    return shapes


def traced_pass(spec: dict, pass_id: str) -> dict:
    tracer = Tracer(pass_id)
    with tracer.span("setup"):
        sys.path.insert(0, str(SRC))
        from qosorch import conformance, engine, formats, model
        from qosorch.registry import load_registry

        loaded = []
        for orch in spec["orchestrations"]:
            files = orch["files"]
            with tracer.span("registry.load_registry", client=orch["name"]):
                registry = load_registry(files["registry"])
            with tracer.span("formats.load_inputs", client=orch["name"]):
                workflow = formats.load_workflow(files["workflow"])
                requests = formats.load_requests(files["requests"])
            with tracer.span("engine.initial_configuration", client=orch["name"]):
                engine.initial_configuration(workflow, registry, requests)
            loaded.append((orch, workflow, registry, requests))

    selection = SelectionRecorder(tracer, engine)
    edges = 0
    original_step = engine.step

    def counting_step(*args, **kwargs):
        nonlocal edges
        edges += 1
        return original_step(*args, **kwargs)

    oracle_calls = 0
    oracle_original = getattr(conformance, "_oracle_feasible", None)

    def counting_oracle(*args, **kwargs):
        nonlocal oracle_calls
        oracle_calls += 1
        with tracer.span("conformance.oracle"):
            return oracle_original(*args, **kwargs)

    checked: list = []  # traces handed to the checker
    verdicts, outcomes, trace_bytes, records_read = [], {}, 0, 0
    explored = 0
    for orch, workflow, registry, requests in loaded:
        files = orch["files"]
        with tracer.span("verdict", client=orch["name"]):
            if spec["kind"] == "explore":
                with patched(engine, "step", counting_step):
                    with tracer.span("engine.explore", client=orch["name"]):
                        traces = engine.explore(
                            workflow, registry, requests, 10_000,
                            max_traces=engine.DEFAULT_MAX_TRACES, selector=selection,
                        )
                explored += len(traces)
            else:
                with tracer.span("engine.run", client=orch["name"]):
                    trace = engine.run(workflow, registry, requests, spec["scheduler_seed"], selector=selection)
                with tracer.span("formats.write_traces", client=orch["name"]):
                    formats.write_traces([trace], files["trace"])
                with tracer.span("formats.read_traces", client=orch["name"]):
                    traces = formats.read_traces(files["trace"])
            with contextlib.ExitStack() as stack:
                for layer in ("check_behavior", "check_system", "check_service"):
                    stack.enter_context(
                        patched(conformance, layer, tracer.wrap(f"conformance.{layer}", getattr(conformance, layer)))
                    )
                if oracle_original is not None:
                    stack.enter_context(patched(conformance, "_oracle_feasible", counting_oracle))
                with tracer.span("conformance.check_pyramid", client=orch["name"]):
                    verdict = conformance.check_pyramid(traces)
        verdicts.append(
            {
                "orchestration": orch["name"],
                "traces": len(traces),
                "layers": [verdict.behavior.passed, verdict.system.passed, verdict.service.passed],
                "violations": len(verdict.violations),
            }
        )
        checked.extend(traces)
        if spec["kind"] == "run":
            outcomes[orch["name"]] = _final_outcomes(traces[0])
            text = Path(files["trace"]).read_text(encoding="utf-8")
            trace_bytes += len(text.encode("utf-8"))
            records_read += sum(1 for line in text.splitlines() if line.strip())

    # Model-layer costs and sizes of what was checked, outside the verdict.
    with tracer.span("model.Trace"):
        for trace in checked:
            model.Trace(initial=trace.initial, steps=trace.steps)
    configs = {config for trace in checked for config in trace.configurations()}
    transitions_checked = sum(len(trace) for trace in checked)

    # Per-step engine cost: replay each distinct recorded (source, message).
    pairs = list(dict.fromkeys((t.source, t.message) for trace in checked for t in trace.steps))
    enabled_max = 0
    with tracer.span("replay"):
        for source, message in pairs:
            with tracer.span("engine.enabled"):
                options = engine.enabled(source)
            enabled_max = max(enabled_max, len(options))
            with tracer.span("engine.step"):
                engine.step(source, message)

    sweep = _sweep(spec["seed"])
    tracer.write(Path(spec["work"]) / f"spans-{pass_id}.jsonl")

    step_us = [d * 1e6 for d in tracer.durations("engine.step")]
    enabled_us = [d * 1e6 for d in tracer.durations("engine.enabled")]
    alloc_us = [d * 1e6 for d in tracer.durations("selection.default_selector")]
    behavior_s = tracer.total("conformance.check_behavior")
    read_s = tracer.total("formats.read_traces")
    explore_configs = len(configs) if spec["kind"] == "explore" else 0
    metrics = {
        "engine.run_s": tracer.self_time("engine.run"),
        "engine.steps": sum(len(t) for t in checked) if spec["kind"] == "run" else 0,
        "engine.step_us_median": _median(step_us),
        "engine.step_us_p99": _percentile(step_us, 99),
        "engine.enabled_us_median": _median(enabled_us),
        "engine.enabled_us_p99": _percentile(enabled_us, 99),
        "engine.pool_max": max(len(c.undelivered) for c in configs),
        "engine.enabled_max": enabled_max,
        "engine.explore_s": tracer.self_time("engine.explore"),
        "engine.explore_traces": explored,
        "engine.explore_configs": explore_configs,
        "engine.explore_edges": edges,
        "engine.explore_useful_ratio": explore_configs / edges if edges else 0.0,
        "selection.calls": selection.calls,
        "selection.alloc_us_median": _median(alloc_us),
        "selection.alloc_us_p90": _percentile(alloc_us, 90),
        "selection.combinations": selection.max_combinations,
        "selection.grant_ratio": selection.granted / selection.calls if selection.calls else 0.0,
        "selection.repeat_share": selection.repeats / selection.calls if selection.calls else 0.0,
        **{f"selection.shape.{shape}_us": entry["us"] for shape, entry in sweep.items()},
        "conformance.behavior_s": behavior_s,
        "conformance.behavior_us_per_transition": behavior_s / transitions_checked * 1e6
        if transitions_checked
        else 0.0,
        "conformance.system_s": tracer.total("conformance.check_system"),
        "conformance.service_s": tracer.self_time("conformance.check_service"),
        "conformance.oracle_s": tracer.total("conformance.oracle"),
        "conformance.oracle_calls": oracle_calls,
        "conformance.violations": sum(v["violations"] for v in verdicts),
        "formats.write_s": tracer.total("formats.write_traces"),
        "formats.read_s": read_s,
        "formats.trace_mb": trace_bytes / 1e6,
        "formats.read_records_per_s": records_read / read_s if read_s else 0.0,
        "model.config_actors_max": max(len(c.actors) for c in configs),
        "model.trace_build_s": tracer.total("model.Trace"),
        "registry.load_s": tracer.total("registry.load_registry"),
        "tracing.verdict_s": tracer.total("verdict"),
    }
    return {
        "metrics": metrics,
        "verdicts": verdicts,
        "outcomes": outcomes,
        "sweep": {shape: entry["results"] for shape, entry in sweep.items()},
    }


def main(argv: list[str]) -> int:
    mode, spec_path, pass_id = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if mode == "setup":
        result = {"setup_s": setup(spec)}
    elif mode in ("pass", "run"):
        result = untraced_pass(spec, check=mode == "pass")
    elif mode == "traced":
        result = traced_pass(spec, pass_id)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
