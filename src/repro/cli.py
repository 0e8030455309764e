"""Command-line entry point: figures, tables, and the reprolint gate.

Examples::

    python -m repro.cli config
    python -m repro.cli figure11 --scale quick
    python -m repro.cli all --scale paper --json results.json
    python -m repro.cli robustness --scale smoke --adversary
    python -m repro.cli fuzz --seed 7 --budget 25 --json store.json
    python -m repro.cli lint src/
    python -m repro.cli lint --list-rules
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.experiments.config import FIGURE_PRESETS, PaperConfig, preset
from repro.experiments.figures import (
    FigureResult,
    figure11,
    figure12,
    figure14,
    figure15,
    run_group_size_sweep,
)
from repro.experiments.report import render_figure_table, render_ratio_summary
from repro.perf.counters import GLOBAL_COUNTERS, StageTimer
from repro.perf.parallel import retire_pool
from repro.sessions.store import CheckpointError

ProgressFn = Callable[[str], None]
Args = argparse.Namespace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmp-repro",
        description=(
            "Reproduction harness for 'GMP: Distributed Geographic Multicast "
            "Routing in Wireless Sensor Networks' (ICDCS 2006)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    experiment_options = argparse.ArgumentParser(add_help=False)
    experiment_options.add_argument(
        "--scale",
        default="quick",
        help="statistical scale: smoke, quick, or paper (default: quick)",
    )
    experiment_options.add_argument(
        "--seed", type=int, default=None, help="override the master seed"
    )
    experiment_options.add_argument(
        "--nodes", type=int, default=None, help="override the node count"
    )
    experiment_options.add_argument(
        "--json", dest="json_path", default=None, help="also write results as JSON"
    )
    experiment_options.add_argument(
        "--quiet", action="store_true", help="suppress progress messages"
    )
    experiment_options.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process count for the experiment sweeps (default: 1, serial)",
    )
    experiment_options.add_argument(
        "--perf",
        action="store_true",
        help="print cache hit rates and per-stage wall time after the run",
    )
    experiment_options.add_argument(
        "--no-shared-plane",
        action="store_true",
        help=(
            "disable the zero-copy shared-memory network plane (workers "
            "rebuild deployments instead of attaching; results are "
            "byte-identical either way — this is the A/B switch)"
        ),
    )
    for name in ("config", *_FAMILIES):
        subparsers.add_parser(
            name,
            parents=[experiment_options],
            help=_HELP.get(name, f"regenerate {name}"),
        )
    subparsers.choices["robustness"].add_argument(
        "--adversary",
        action="store_true",
        help=(
            "also sweep adversarial node counts "
            "(dropper/spoofer/suppressor behaviors)"
        ),
    )
    sessions = subparsers.choices["sessions"]
    sessions.add_argument(
        "--checkpoint-dir",
        default=None,
        help="checkpoint each cell here and resume from it on rerun",
    )
    sessions.add_argument(
        "--stop-after",
        type=int,
        default=0,
        help=(
            "halt after this many sessions complete this run (deterministic "
            "interruption for resume testing; use with --checkpoint-dir)"
        ),
    )

    fuzz = subparsers.add_parser(
        "fuzz",
        help=(
            "run the deterministic scenario fuzzer (adversary/fault "
            "schedules against the failure oracles)"
        ),
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=20060704,
        help="campaign root seed (default: 20060704)",
    )
    fuzz.add_argument(
        "--budget",
        type=int,
        default=25,
        help="number of scenarios to generate and run (default: 25)",
    )
    fuzz.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="write the canonical results store to this path",
    )
    fuzz.add_argument(
        "--fixtures-dir",
        default=None,
        help="write shrunk findings as regression fixtures into this directory",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="record findings without minimizing them",
    )
    fuzz.add_argument(
        "--fail-on-findings",
        action="store_true",
        help="exit 1 if any oracle fired (CI gate)",
    )
    fuzz.add_argument(
        "--quiet", action="store_true", help="suppress progress messages"
    )

    lint = subparsers.add_parser(
        "lint",
        help="run the reprolint determinism & protocol-contract analyzer",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "scripts", "benchmarks"],
        help=(
            "files or directories to analyze "
            "(default: src tests scripts benchmarks)"
        ),
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="list the rule set and exit"
    )
    lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print findings silenced by suppression comments",
    )
    lint.add_argument(
        "--format",
        dest="lint_format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--output",
        dest="lint_output",
        default=None,
        help="write the report to a file instead of stdout",
    )
    return parser


def _make_config(args: argparse.Namespace) -> PaperConfig:
    kwargs = {}
    if args.seed is not None:
        kwargs["master_seed"] = args.seed
    if args.nodes is not None:
        kwargs["node_count"] = args.nodes
    return PaperConfig(**kwargs)


def _write_json(
    path: str,
    figures_payload: Dict,
    scale_name: Optional[str],
    master_seed: int,
    progress,
) -> None:
    """Write a figure payload (plus run provenance) as JSON."""
    payload = dict(figures_payload)
    payload["scale"] = scale_name
    payload["master_seed"] = master_seed
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    progress(f"wrote {path}")


def _rss_divisor(platform: str) -> float:
    """``ru_maxrss`` unit divisor to MiB: KiB on Linux, bytes on macOS."""
    return 1024.0 * 1024.0 if platform == "darwin" else 1024.0


def _format_peak_rss(
    self_mib: float, worker_mib: float, shared_mib: float
) -> str:
    """Render the one-line memory telemetry message.

    The shared-memory plane's segments are mapped into every process, so
    naive per-process RSS sums would count them once per worker; they are
    reported once, as their own component, instead.
    """
    message = f"peak RSS: {self_mib:.0f} MiB"
    if worker_mib > 0.0:
        message += f" (largest worker {worker_mib:.0f} MiB)"
    if shared_mib > 0.0:
        message += f" (shared={shared_mib:.0f} MiB, counted once)"
    return message


def _report_peak_rss(progress) -> None:
    """Report peak resident set size via ``progress`` (stderr, not stdout).

    Memory telemetry for the large-scale sweeps; stdout stays reserved for
    results so CI can diff serial vs parallel runs byte-for-byte.  Worker
    processes are accounted separately — ``ru_maxrss`` of reaped children
    is the largest single worker, not their sum — and shared-memory plane
    segments are accounted once (they back every process's mapping).
    """
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return
    from repro.perf.shm import peak_published_bytes

    divisor = _rss_divisor(sys.platform)
    peak_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / divisor
    peak_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / divisor
    shared_mib = peak_published_bytes() / (1024.0 * 1024.0)
    progress(_format_peak_rss(peak_self, peak_child, shared_mib))


def _progress_printer(quiet: bool) -> ProgressFn:
    """Operator progress on stderr, time-stamped; a no-op under ``--quiet``."""
    if quiet:
        return lambda msg: None
    # Operator-facing progress stamp, not simulation state.
    return lambda msg: print(
        f"  [{time.strftime('%H:%M:%S')}] {msg}",  # reprolint: disable=R002
        file=sys.stderr,
    )


class _Outcome(NamedTuple):
    """What one experiment family hands the shared tail of ``_dispatch``."""

    #: Preset name recorded in the ``--json`` provenance (None: no preset).
    preset_name: Optional[str]
    #: Stdout blocks, one ``print`` each.
    blocks: List[str]
    #: The ``--json`` payload.
    payload: Dict[str, object]
    #: Printed as ``digest: ...`` after the blocks, when the family has one.
    digest: Optional[str] = None


def _figure_outcome(
    preset_name: str, figures: Sequence[FigureResult], precision: int = 2
) -> _Outcome:
    """One table block per figure (Figures 11 and 14 add GMP's savings)."""
    blocks = []
    for fig in figures:
        block = render_figure_table(fig, precision=precision)
        if fig.figure_id in ("figure11", "figure14"):
            block += "\n" + render_ratio_summary(
                fig, "GMP", ["PBM", "LGS", "SMT", "GMPnr"]
            )
        blocks.append(block + "\n")
    payload: Dict[str, object] = {fig.figure_id: fig.to_json_dict() for fig in figures}
    return _Outcome(preset_name, blocks, payload)


def _run_figures(args: Args, config: PaperConfig, progress: ProgressFn) -> _Outcome:
    scale = preset(FIGURE_PRESETS, args.scale)
    if args.command in ("all", "figures"):
        wanted = ("figure11", "figure12", "figure14", "figure15")
    else:
        wanted = (args.command,)
    # Operator-layer wall clock, injected by reference: library code never
    # reads the clock itself (reprolint R002), it only ticks what it is given.
    wall_clock = time.perf_counter
    figures: List[FigureResult] = []
    from_sweep = {"figure11": figure11, "figure12": figure12, "figure14": figure14}
    if any(name in from_sweep for name in wanted):
        progress(f"running group-size sweep at scale {scale.name!r} ...")
        with StageTimer("group-size-sweep", clock=wall_clock):
            sweep = run_group_size_sweep(
                config, scale, progress=progress, workers=args.workers
            )
        figures += [make(sweep) for name, make in from_sweep.items() if name in wanted]
    if "figure15" in wanted:
        progress("running density sweep for figure 15 ...")
        with StageTimer("density-sweep", clock=wall_clock):
            figures.append(
                figure15(config, scale, progress=progress, workers=args.workers)
            )
    return _figure_outcome(scale.name, figures)


def _run_robustness(args: Args, config: PaperConfig, progress: ProgressFn) -> _Outcome:
    from repro.experiments.robustness import (
        ROBUSTNESS_PRESETS,
        adversary_sweep,
        link_loss_sweep,
        node_failure_sweep,
    )

    scale = preset(ROBUSTNESS_PRESETS, args.scale)
    if args.nodes is None:
        # Robustness sweeps default to a smaller deployment than Table 1.
        config = dataclasses.replace(config, node_count=400)
    progress(f"running robustness sweeps at scale {scale.name!r} ...")
    figures = [
        *link_loss_sweep(config, scale, progress, args.workers),
        node_failure_sweep(config, scale, progress, args.workers),
    ]
    if args.adversary:
        progress("running adversary sweeps ...")
        figures += adversary_sweep(
            config, scale, progress=progress, workers=args.workers
        )
    return _figure_outcome(scale.name, figures, precision=3)


def _run_contention(args: Args, config: PaperConfig, progress: ProgressFn) -> _Outcome:
    from repro.experiments.contention import (
        CONTENTION_PRESETS,
        arq_ablation,
        contention_sweep,
    )

    scale = preset(CONTENTION_PRESETS, args.scale)
    if args.nodes is not None:
        # Contended runs size the deployment from their preset, not from
        # Table 1 — --nodes overrides the preset.
        scale = dataclasses.replace(scale, node_count=args.nodes)
    progress(f"running contention sweeps at scale {scale.name!r} ...")
    figures = list(contention_sweep(config, scale, progress, args.workers).values())
    progress("running ARQ ablation ...")
    figures.append(arq_ablation(config, scale, progress, args.workers))
    return _figure_outcome(scale.name, figures, precision=3)


def _run_scale(args: Args, config: PaperConfig, progress: ProgressFn) -> _Outcome:
    from repro.experiments.scale import SCALE_PRESETS, render_scale_table, run_scale_sweep

    scale = preset(SCALE_PRESETS, args.scale)
    if args.nodes is not None:
        scale = dataclasses.replace(scale, node_counts=(args.nodes,))
    progress(f"running large-scale sweep at preset {scale.name!r} ...")
    with StageTimer("scale-sweep", clock=time.perf_counter):
        sweep = run_scale_sweep(config, scale, workers=args.workers, progress=progress)
    return _Outcome(
        scale.name,
        [render_scale_table(sweep)],
        {"scale-sweep": sweep.to_json_dict()},
        sweep.digest(),
    )


def _run_sessions(args: Args, config: PaperConfig, progress: ProgressFn) -> _Outcome:
    from repro.experiments.sessions import (
        SESSION_PRESETS,
        render_sessions_table,
        run_sessions_sweep,
    )

    scale = preset(SESSION_PRESETS, args.scale)
    if args.nodes is not None:
        scale = dataclasses.replace(scale, node_counts=(args.nodes,))
    progress(f"running streaming-session sweep at preset {scale.name!r} ...")
    with StageTimer("sessions-sweep", clock=time.perf_counter):
        sweep = run_sessions_sweep(
            config,
            scale,
            workers=args.workers,
            progress=progress,
            checkpoint_dir=args.checkpoint_dir,
            stop_after=args.stop_after,
        )
    elapsed = GLOBAL_COUNTERS.stage_seconds("sessions-sweep")
    if elapsed > 0.0 and sweep.completed_sessions:
        progress(
            f"throughput: {sweep.completed_sessions / elapsed:.2f} "
            f"sessions/s over {elapsed:.1f}s"
        )
    return _Outcome(
        scale.name,
        [render_sessions_table(sweep)],
        {"sessions-sweep": sweep.to_json_dict()},
        sweep.digest(),
    )


def _run_ablations(args: Args, config: PaperConfig, progress: ProgressFn) -> _Outcome:
    from repro.experiments.ablations import render_ablations, run_all_ablations

    if args.workers > 1:
        raise ValueError("ablations run serially; --workers must be 1")
    if args.nodes is None:
        # Ablations default to a smaller deployment than Table 1.
        config = dataclasses.replace(config, node_count=400)
    progress("running ablations ...")
    outcomes = run_all_ablations(config)
    return _Outcome(
        None,
        [render_ablations(outcomes)],
        {"ablations": [dataclasses.asdict(outcome) for outcome in outcomes]},
    )


#: Every experiment command and its runner.  ``config``, ``fuzz`` and
#: ``lint`` are not experiment families; :func:`_dispatch` keeps their
#: own branches.
_FAMILIES: Dict[str, Callable[[Args, PaperConfig, ProgressFn], _Outcome]] = {
    "figure11": _run_figures,
    "figure12": _run_figures,
    "figure14": _run_figures,
    "figure15": _run_figures,
    "all": _run_figures,
    "figures": _run_figures,  # alias of "all"
    "ablations": _run_ablations,
    "robustness": _run_robustness,
    "contention": _run_contention,
    "scale": _run_scale,
    "sessions": _run_sessions,
}

_HELP = {
    "scale": (
        "large-scale constant-density sweep (presets: smoke/quick/paper "
        "at 2k-10k nodes, smoke50k at 50k, deep at 50k+100k)"
    ),
    "sessions": (
        "streaming-session throughput sweep (presets: smoke/quick/paper; "
        "arrival-process workloads folded into bounded-memory sketches)"
    ),
}


def _run_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        analyze_paths,
        default_registry,
        report_to_json,
        report_to_sarif,
    )

    registry = default_registry()
    if args.list_rules:
        for rule_id, severity, summary in registry.summaries():
            print(f"{rule_id}  [{severity:7s}] {summary}")
        return 0
    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        for path in missing:
            print(f"error: no such file or directory: {path}", file=sys.stderr)
        return 2
    report = analyze_paths(args.paths, registry=registry)
    if args.lint_format == "json":
        text = json.dumps(report_to_json(report), indent=2, sort_keys=True)
    elif args.lint_format == "sarif":
        text = json.dumps(
            report_to_sarif(report, registry=registry), indent=2, sort_keys=True
        )
    else:
        lines = []
        if args.show_suppressed and report.suppressed:
            lines.extend(
                f"[suppressed] {finding.render()}"
                for finding in sorted(report.suppressed, key=lambda f: f.sort_key())
            )
        lines.append(report.render())
        text = "\n".join(lines)
    if args.lint_output:
        with open(args.lint_output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0 if report.clean else 1


def _run_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import render_fuzz_table, run_fuzz_campaign, write_fixtures

    progress = _progress_printer(args.quiet)
    store = run_fuzz_campaign(
        args.seed,
        args.budget,
        shrink=not args.no_shrink,
        progress=progress,
    )
    # Deterministic report (and store digest) on stdout; CI byte-diffs it.
    print(render_fuzz_table(store))
    if args.json_path:
        store.save(args.json_path)
        progress(f"wrote {args.json_path}")
    if args.fixtures_dir:
        paths = write_fixtures(store, args.fixtures_dir)
        progress(f"wrote {len(paths)} fixture(s) to {args.fixtures_dir}")
    if args.fail_on_findings and store.finding_count:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (CheckpointError, ValueError) as error:
        # Expected operator-level failures (unknown scale names, invalid
        # configurations, unusable checkpoints) become a one-line diagnostic
        # and a distinct exit code instead of a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "fuzz":
        return _run_fuzz(args)

    if args.no_shared_plane:
        from repro.perf.shm import set_shared_plane_enabled

        set_shared_plane_enabled(False)

    config = _make_config(args)
    progress = _progress_printer(args.quiet)

    if args.command == "config":
        print("Table 1. Simulation setup")
        print(config.describe())
        return 0

    outcome = _FAMILIES[args.command](args, config, progress)
    # The command is the worker pool's scope; joining the workers here also
    # lets the peak-RSS report count them (only reaped children count).
    retire_pool()
    # Deterministic results on stdout (CI byte-diffs them); memory, perf
    # and file telemetry on stderr only.
    for block in outcome.blocks:
        print(block)
    if outcome.digest is not None:
        print(f"digest: {outcome.digest}")
    _report_peak_rss(progress)
    if args.json_path:
        _write_json(
            args.json_path,
            outcome.payload,
            outcome.preset_name,
            config.master_seed,
            progress,
        )
    if args.perf:
        print(GLOBAL_COUNTERS.render(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
