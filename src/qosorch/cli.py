"""Command-line front end: run, explore, and check orchestrations.

Exit codes are a stable contract:
  0  success
  1  input error (usage error, invalid bound, missing or malformed file)
  2  engine error
  3  state-space bound exceeded
  4  conformance violations found
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import conformance, engine, formats
from .model import InstanceState
from .registry import RegistryError, load_registry
from .selection import aggregate_qos

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ENGINE = 2
EXIT_BOUND = 3
EXIT_VIOLATION = 4


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors (exit 1)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def positive(text: str) -> int:
    """An integer of at least 1; argparse names this type in its error for
    text that is not an integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qosorch",
        description="Run, explore, and check QoS-aware service orchestrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_inputs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workflow", required=True, help="workflow definition file (JSONL)")
        p.add_argument("--registry", required=True, help="service registry file (JSONL)")
        p.add_argument("--requests", required=True, help="client requests file (JSONL)")
        p.add_argument("--trace-out", help="write traces (and violations) to this file")

    run_p = sub.add_parser("run", help="execute one seeded run to termination")
    add_inputs(run_p)
    run_p.add_argument("--seed", type=int, default=0, help="scheduler seed (default 0)")

    explore_p = sub.add_parser(
        "explore", help="enumerate all interleavings and check conformance"
    )
    add_inputs(explore_p)
    explore_p.add_argument(
        "--max-transitions",
        type=positive,
        default=10_000,
        help="per-trace transition bound (default 10000)",
    )
    explore_p.add_argument(
        "--max-traces",
        type=positive,
        default=engine.DEFAULT_MAX_TRACES,
        help="bound on the maximal traces listed, which happens only for --trace-out "
        f"or to report violations (default {engine.DEFAULT_MAX_TRACES})",
    )

    check_p = sub.add_parser("check", help="check a written trace file against the three layers")
    check_p.add_argument("trace_file", help="trace file produced by run or explore")
    return parser


def _load_inputs(args):
    workflow = formats.load_workflow(args.workflow)
    registry = load_registry(args.registry)
    requests = formats.load_requests(args.requests)
    for aa_name, ontology in workflow.activities:
        if not registry.query(ontology):
            raise RegistryError(
                f"{args.registry}: no candidate for ontology {ontology!r} of activity {aa_name!r}"
            )
    # The engine rejects requests that do not fit the workflow or each other.
    try:
        engine.initial_configuration(workflow, registry, requests)
    except ValueError as exc:
        raise formats.FormatError(f"{args.requests}: {exc}") from exc
    return workflow, registry, requests


def _print_outcomes(trace) -> None:
    for _, instance in sorted(trace.final.instances()):
        cid = instance.client_id
        if instance.state is InstanceState.COMPLETED:
            qos = aggregate_qos([aa.ws.advertised_qos for aa in instance.activities if aa.ws.bound])
            budget = instance.request.qos
            print(
                f"{cid}: Completed qos=({qos.response_time_ms}ms<={budget.response_time_ms}ms, "
                f"{qos.cost_cents}c<={budget.cost_cents}c)"
            )
        else:
            print(f"{cid}: {instance.state.value}")


def _print_violations(violations) -> None:
    for violation in violations:
        where = (
            "" if violation.transition_index is None else f" transition={violation.transition_index}"
        )
        print(
            f"violation {violation.property_id} trace={violation.trace_index}{where}: "
            f"{violation.witness}",
            file=sys.stderr,
        )


def _write_out(path: str, traces, violations=()) -> bool:
    """Write traces, then violations, to path; a file that cannot be
    written is reported as an input error."""
    try:
        formats.write_traces(traces, path)
        if violations:
            formats.append_violations(violations, path)
    except OSError as exc:
        print(f"error: {path}: cannot write: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def cmd_run(args) -> int:
    try:
        workflow, registry, requests = _load_inputs(args)
    except (formats.FormatError, RegistryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        trace = engine.run(workflow, registry, requests, args.seed)
    except (engine.EngineError, ValueError) as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    if args.trace_out and not _write_out(args.trace_out, [trace]):
        return EXIT_INPUT
    _print_outcomes(trace)
    return EXIT_OK


def cmd_explore(args) -> int:
    try:
        workflow, registry, requests = _load_inputs(args)
    except (formats.FormatError, RegistryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        graph = engine.explore_graph(workflow, registry, requests, args.max_transitions)
        # Paths are listed only to write them or to place violations, and
        # --max-traces bounds that list.
        graph = replace(graph, max_traces=args.max_traces)
        traces = graph.traces() if args.trace_out else None
        verdict = conformance.check_pyramid(graph)
    except engine.StateSpaceLimitError as exc:
        print(f"state-space limit: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (engine.EngineError, ValueError) as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    print(f"traces: {graph.paths}")
    for layer, layer_verdict in (
        ("behavior", verdict.behavior),
        ("system", verdict.system),
        ("service", verdict.service),
    ):
        print(f"{layer}: {'pass' if layer_verdict.passed else 'fail'}")
    if args.trace_out and not _write_out(args.trace_out, traces, verdict.violations):
        return EXIT_INPUT
    if not verdict.passed:
        _print_violations(verdict.violations)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_check(args) -> int:
    path = Path(args.trace_file)
    try:
        traces = formats.read_traces(path)
    except (formats.FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not traces:
        print("traces: 0")
        print("conformant (vacuous)")
        return EXIT_OK
    verdict = conformance.check_pyramid(traces)
    print(f"traces: {len(traces)}")
    if verdict.violations:
        _print_violations(verdict.violations)
        return EXIT_VIOLATION
    print("conformant")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "explore":
        return cmd_explore(args)
    return cmd_check(args)


if __name__ == "__main__":
    raise SystemExit(main())
