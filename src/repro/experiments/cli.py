"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands
-----------
``run``        one simulation, printing the summary and hourly metrics,
``campaign``   an (algorithm × seed) sweep across worker processes with
               on-disk result caching,
``sweep``      adaptive capacity sweep: bisect each heuristic's saturation
               arrival rate per scenario and write a JSON envelope report,
``bench``      time the end-to-end perf scenarios and write a
               machine-readable ``BENCH_*.json`` report,
``serve``      run the simulation-as-a-service HTTP API (submit campaign
               manifests, poll status, fetch cached results by hash,
               scrape Prometheus metrics from ``GET /metrics``),
``trace``      summarize a Chrome trace written by ``run --trace-out``,
``figure``     regenerate a paper figure (4–14 or ``table2``) as ASCII + CSV,
``table``      print Table I (the experimental setting) or Table II,
``list``       list registered algorithm bundles,
``scenarios``  list the named workload scenario presets.

Examples
--------
::

    repro run --algorithm dsmf -n 120 --hours 24 --seed 3
    repro run -n 60 --telemetry --trace-out trace.json
    repro trace summarize trace.json
    repro campaign -a dsmf dheft --seeds 1 2 3 4 --jobs 4
    repro campaign --scenario poisson-steady -a dsmf --seeds 1 2 3
    repro sweep --scenarios paper-fig4 poisson-steady --jobs 4 -o envelope.json
    repro sweep --quick --resolution 0.5
    repro bench --quick --scenarios paper-fig4 --output BENCH_PR3.json
    repro bench --baseline BENCH_PR3.json --profile-top 15
    repro serve --port 8642 --jobs 4
    repro figure 4 --profile small --csv out/fig4.csv
    repro table 1
"""

from __future__ import annotations

import argparse
import ast
import sys
from typing import Sequence

from repro.api import (
    available_algorithms,
    available_churn_models,
    available_recovery_policies,
    available_scenarios,
)
from repro.experiments.config import ExperimentConfig, ScaleProfile
from repro.experiments.figures import (
    FIGURES,
    base_config,
    figure_cells,
    fold_figure,
    table1_settings,
)
from repro.experiments.report import ascii_plot, ascii_table, write_series_csv, write_table_csv

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Dual-Phase Just-in-Time Workflow Scheduling in "
            "P2P Grid Systems' (Di & Wang, ICPP 2010)."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one simulation")
    run.add_argument("--algorithm", "-a", default="dsmf", choices=available_algorithms())
    # Workload-shaped flags default to None so an omitted flag can yield
    # to a --scenario preset's override (_cmd_run fills the usual
    # defaults: 100 nodes, load factor 3, 24 h, df 0).
    run.add_argument("--nodes", "-n", type=int, default=None, help="default 100")
    run.add_argument("--load-factor", "-l", type=int, default=None, help="default 3")
    run.add_argument("--hours", type=float, default=None, help="default 24")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--dynamic-factor", type=float, default=None, help="default 0")
    run.add_argument(
        "--scenario", default=None, choices=available_scenarios(),
        help="workload scenario preset (see `repro scenarios`); explicit "
             "flags win over the preset's overrides",
    )
    run.add_argument(
        "--workload-path", default=None,
        help="DAG file/directory or submission trace (for the "
             "imported-dag / trace-replay scenarios)",
    )
    run.add_argument(
        "--churn-model", default=None, choices=available_churn_models(),
        help="availability model driving node joins/leaves "
             "(default paper-interval; see repro.availability)",
    )
    run.add_argument(
        "--recovery", default=None, choices=available_recovery_policies(),
        help="fate of tasks lost in churn_mode=fail "
             "(fail | reschedule | checkpoint)",
    )
    run.add_argument(
        "--telemetry", action="store_true",
        help="collect runtime counters/gauges/histograms and print the "
             "snapshot after the run (observation-only: the result digest "
             "is bit-identical either way)",
    )
    run.add_argument(
        "--trace-out", default=None, metavar="TRACE.json",
        help="record sim-time spans and write a Chrome trace-event JSON "
             "file (open in https://ui.perfetto.dev or chrome://tracing)",
    )

    camp = sub.add_parser(
        "campaign",
        help="run an (algorithm × seed) sweep in parallel, with result caching",
    )
    camp.add_argument(
        "--algorithms", "-a", nargs="+", default=["dsmf"],
        choices=available_algorithms(), metavar="ALG",
    )
    camp.add_argument("--seeds", "-s", nargs="+", type=int, default=[1])
    camp.add_argument("--jobs", "-j", type=int, default=1,
                      help="worker processes (1 = inline)")
    camp.add_argument(
        "--profile", default="small", choices=[s.value for s in ScaleProfile],
        help="scale profile for the base config",
    )
    camp.add_argument(
        "--scenario", default=None, choices=available_scenarios(),
        help="workload scenario preset applied to every cell "
             "(--set overrides win; see `repro scenarios`)",
    )
    camp.add_argument(
        "--churn-model", default=None, choices=available_churn_models(),
        help="availability model applied to every cell (--set overrides win)",
    )
    camp.add_argument(
        "--recovery", default=None, choices=available_recovery_policies(),
        help="recovery policy applied to every cell (--set overrides win)",
    )
    camp.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="FIELD=VALUE",
        help="override any ExperimentConfig field (repeatable), "
             "e.g. --set n_nodes=60 --set dynamic_factor=0.2",
    )
    camp.add_argument("--cache-dir", default=None,
                      help="result cache location (default .repro_cache/campaign)")
    camp.add_argument("--no-cache", action="store_true",
                      help="force fresh runs; skip cache reads and writes")
    camp.add_argument("--csv", default=None, help="also write the per-run table to CSV")
    camp.add_argument(
        "--telemetry", action="store_true",
        help="collect per-run telemetry and print the campaign-wide merged "
             "summary (cache hits, worker utilization, counter totals)",
    )
    camp.add_argument(
        "--journal", default=None, metavar="JOURNAL.jsonl",
        help="crash-safe progress journal: every finished cell is synced to "
             "disk as it completes, so a killed campaign can be resumed",
    )
    camp.add_argument(
        "--resume", action="store_true",
        help="resume a killed campaign from its --journal: finished cells "
             "replay from cache (digest-checked against the journal), only "
             "the unfinished tail re-executes",
    )
    camp.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="re-run a cell killed by a worker-process death up to N times "
             "on a rebuilt pool (default 2; deterministic run errors are "
             "never retried)",
    )
    camp.add_argument(
        "--retry-backoff", type=float, default=0.25, metavar="SECONDS",
        help="base delay before a retry round; doubles per round, capped "
             "at 5s (default 0.25)",
    )
    camp.add_argument(
        "--inject-faults", default=None, metavar="PLAN.json",
        help="chaos testing: load a deterministic fault plan (see "
             "docs/robustness.md for the schema) and inject its scheduled "
             "worker crashes / cache IO errors / journal tears",
    )
    camp.add_argument("--quiet", action="store_true", help="suppress per-run progress")

    sw = sub.add_parser(
        "sweep",
        help="bisect each heuristic's saturation arrival rate (capacity envelope)",
    )
    sw.add_argument(
        "--scenarios", nargs="+", default=["paper-fig4", "poisson-steady"],
        choices=available_scenarios(), metavar="NAME",
        help="generated-workload scenarios to sweep (trace-replay presets "
             "are rejected: their arrival rate is fixed by the trace file)",
    )
    sw.add_argument(
        "--algorithms", "-a", nargs="+", default=["dsmf", "dheft", "heft", "smf"],
        choices=available_algorithms(), metavar="ALG",
        help="heuristics to bisect (default: the paper's four golden ones)",
    )
    sw.add_argument("--seeds", "-s", nargs="+", type=int, default=[1],
                    help="seeds averaged into each probe's completion rate")
    sw.add_argument("--threshold", type=float, default=0.95,
                    help="a probe passes when mean completion rate >= this")
    sw.add_argument("--resolution", type=float, default=0.25,
                    help="stop bisecting when the bracket is this narrow")
    sw.add_argument("--max-scale", type=float, default=8.0,
                    help="cap on the exponential growth phase")
    sw.add_argument(
        "--profile", default="small", choices=[s.value for s in ScaleProfile],
        help="scale profile for the base config",
    )
    sw.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="FIELD=VALUE",
        help="override any ExperimentConfig field on every probe "
             "(repeatable), e.g. --set n_nodes=60",
    )
    sw.add_argument(
        "--quick", action="store_true",
        help="CI smoke shape: tiny grid/horizon, coarse resolution, low "
             "max-scale (same code paths; minutes, not hours)",
    )
    sw.add_argument("--jobs", "-j", type=int, default=1,
                    help="worker processes per probe (1 = inline)")
    sw.add_argument("--cache-dir", default=None,
                    help="probe result cache (default .repro_cache/campaign)")
    sw.add_argument("--no-cache", action="store_true",
                    help="force fresh probes; skip cache reads and writes")
    sw.add_argument("--output", "-o", default=None, metavar="REPORT.json",
                    help="also write the capacity-envelope report as JSON")
    sw.add_argument(
        "--journal", default=None, metavar="JOURNAL.jsonl",
        help="crash-safe progress journal: every finished probe cell is "
             "synced to disk as it completes, so a killed sweep can be resumed",
    )
    sw.add_argument(
        "--resume", action="store_true",
        help="resume a killed sweep from its --journal: finished probe "
             "cells replay from cache (digest-checked), the search "
             "continues from where it died",
    )
    sw.add_argument("--quiet", action="store_true", help="suppress per-probe progress")

    bench = sub.add_parser(
        "bench",
        help="time the end-to-end perf scenarios; write a BENCH_*.json report",
    )
    # Names validated lazily in _cmd_bench (keeps the per-command-import
    # convention: `repro run` never loads the perf/cProfile machinery).
    bench.add_argument(
        "--scenarios", "-s", nargs="+", default=None, metavar="NAME",
        help="presets to time: paper-fig4, poisson-steady, fig11-grid, "
             "fig10-dynamic, metro-1k (default: all)",
    )
    bench.add_argument("--quick", action="store_true",
                       help="smoke-sized configs (CI; same code paths, smaller grid)")
    bench.add_argument("--repeats", type=int, default=1,
                       help="timing repetitions per scenario; best wall time is kept")
    bench.add_argument("--profile-top", type=int, default=0, metavar="N",
                       help="embed the N hottest repo functions (cProfile)")
    bench.add_argument("--output", "-o", default=None,
                       help="report path (default: BENCH_LOCAL.json, which "
                            "git ignores)")
    bench.add_argument(
        "--baseline", nargs="?", const="auto", default=None, metavar="REPORT.json",
        help="previous report to compute wall-clock speedups against; with "
             "no path, auto-discovers the newest BENCH_PR*.json in the "
             "current directory whose quick flag matches this run (run from "
             "the repo root; --output is excluded)",
    )
    bench.add_argument(
        "--regression-threshold", type=float, default=None, metavar="FACTOR",
        help="exit non-zero when any common scenario's speedup vs the "
             "baseline falls below the floor; 0.8 and 1.25 both tolerate "
             "up to a 1.25x slowdown (values above 1 are read as the max "
             "slowdown factor); requires --baseline",
    )
    bench.add_argument(
        "--telemetry", action="store_true",
        help="run the scenarios with telemetry enabled and embed each "
             "scenario's counter snapshot in the report (times the "
             "instrumented path; digests are unchanged)",
    )
    bench.add_argument("--quiet", action="store_true", help="suppress per-scenario progress")

    srv = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service HTTP API over the campaign cache",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8642,
                     help="TCP port (0 = ephemeral; the bound port is printed)")
    srv.add_argument("--jobs", "-j", type=int, default=1,
                     help="worker processes per campaign (1 = inline)")
    srv.add_argument("--cache-dir", default=None,
                     help="content-addressed result cache shared with "
                          "`repro campaign` (default .repro_cache/campaign)")
    srv.add_argument("--index", default=None, metavar="JSONL",
                     help="experiment index journal "
                          "(default <cache-dir>/experiments.jsonl)")
    srv.add_argument("--no-cache", action="store_true",
                     help="diagnostics only: force fresh runs (disables the "
                          "cross-campaign coalescing guarantee)")
    srv.add_argument("--journal", default=None, metavar="JSONL",
                     help="submission journal enabling restart-resume "
                          "(default <cache-dir>/service.jsonl)")
    srv.add_argument("--max-pending", type=int, default=None, metavar="N",
                     help="bound the backlog: submissions beyond N queued+"
                          "running campaigns get 429 + Retry-After "
                          "(default unbounded)")
    srv.add_argument("--verbose", action="store_true",
                     help="log every request to stderr")

    trace = sub.add_parser(
        "trace",
        help="inspect Chrome trace files written by `repro run --trace-out`",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    tsum = trace_sub.add_parser("summarize", help="span counts/durations per category")
    tsum.add_argument("trace_file", metavar="TRACE.json")

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("figure", choices=sorted(FIGURES, key=lambda s: (len(s), s)))
    fig.add_argument(
        "--profile",
        default="small",
        choices=[s.value for s in ScaleProfile],
        help="scale profile (paper = exactly Table I, expensive)",
    )
    fig.add_argument("--seed", type=int, default=1)
    fig.add_argument("--csv", default=None, help="also write the series to CSV")
    fig.add_argument("--quiet", action="store_true", help="suppress per-run progress")

    tab = sub.add_parser("table", help="print a paper table")
    tab.add_argument("table", choices=["1", "2"])
    tab.add_argument("--profile", default="small", choices=[s.value for s in ScaleProfile])
    tab.add_argument("--seed", type=int, default=1)

    sub.add_parser("list", help="list available algorithms")
    sub.add_parser("scenarios", help="list workload scenario presets")
    return p


def _cmd_run(args) -> int:
    from repro.api import run_experiment
    from repro.experiments.request import ManifestError, resolve

    flags = {
        "n_nodes": args.nodes,
        "load_factor": args.load_factor,
        "total_time": None if args.hours is None else args.hours * 3600.0,
        "dynamic_factor": args.dynamic_factor,
        "workload_path": args.workload_path,
        "churn_model": args.churn_model,
        "recovery_policy": args.recovery,
        "telemetry": args.telemetry or None,
    }
    manifest = {
        "scenario": args.scenario, "algorithms": [args.algorithm], "seeds": [args.seed],
        "overrides": {key: value for key, value in flags.items() if value is not None},
    }
    base = ExperimentConfig(n_nodes=100, load_factor=3, total_time=24 * 3600.0)
    try:
        (spec,) = resolve("campaign", manifest, base).specs
    except ManifestError as exc:  # e.g. --nodes 1, in the config's own words
        raise SystemExit(_refusal(exc, prefix=""))
    recorder = None
    if args.trace_out:
        from repro.obs.recorder import TraceRecorder

        recorder = TraceRecorder()
    try:
        result = run_experiment(spec.config, recorder=recorder)
    except ValueError as exc:  # e.g. an unreadable workload file
        raise SystemExit(str(exc))
    print(result.summary())
    rows = [
        [f"{s.time / 3600:.0f}h", s.throughput, round(s.act), round(s.ae, 3)]
        for s in result.samples
    ]
    print(ascii_table(["time", "finished", "ACT (s)", "AE"], rows))
    if result.telemetry is not None:
        print("\n== telemetry ==")
        for line in result.telemetry.summary_lines():
            print(f"  {line}")
    if recorder is not None:
        from repro.obs.spans import write_chrome_trace

        trace = write_chrome_trace(args.trace_out, recorder, result)
        print(f"\nwrote {args.trace_out} ({len(trace['traceEvents'])} trace events; "
              "open in https://ui.perfetto.dev)")
    return 0


def _parse_overrides(pairs: list[str]) -> dict:
    """``FIELD=VALUE`` strings -> config overrides (literals when possible)."""
    out: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--set expects FIELD=VALUE, got {pair!r}")
        key, _, raw = pair.partition("=")
        key = key.strip()
        if key in ("algorithm", "seed"):
            raise SystemExit(
                f"--set {key}=... would be overwritten per sweep cell; "
                "use --algorithms/--seeds instead"
            )
        if key == "scenario":
            raise SystemExit(
                "--set scenario=... only stamps the provenance field; "
                "use --scenario NAME to apply the preset's overrides"
            )
        try:
            out[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            out[key] = raw
    return out


def _refusal(exc, prefix: str = "invalid --set override: ") -> str:
    """The CLI text of a :class:`~repro.experiments.request.ManifestError`:
    a config's own error behind ``prefix``, or the refusal's message."""
    if exc.code == "invalid-overrides" and exc.__cause__ is not None:
        return f"{prefix}{exc.__cause__}"
    return exc.message


def _run_request(args, kind: str, manifest: dict, base, **options):
    """Resolve and execute one ``campaign``/``sweep`` request for ``args``.

    With ``--journal`` every finished cell's digest is synced to the
    journal; with ``--resume`` the journal must exist and come from the
    same request, and the cells it lists must replay with the digests it
    recorded.  Returns ``(outcome, journaled digests or None)``.
    """
    from pathlib import Path

    from repro.experiments.campaign import CampaignError
    from repro.experiments.journal import RunJournal
    from repro.experiments.request import ManifestError, execute, resolve
    from repro.faults import NULL_FAULTS

    if args.resume and not args.journal:
        raise SystemExit("--resume requires --journal JOURNAL.jsonl")
    try:
        request = resolve(kind, manifest, base)
    except ManifestError as exc:
        raise SystemExit(_refusal(exc))
    journal = expected = None
    if args.journal:
        if args.resume:
            state = RunJournal.load(args.journal)
            if state is None:
                raise SystemExit(f"--resume: no journal at {args.journal}")
            if state.identity != request.identity:
                raise SystemExit(
                    f"--resume: the journal was written by a different {kind} "
                    "request (grid, settings, config or code version changed) — "
                    "start fresh without --resume"
                )
            expected = state.done
            if not args.quiet:
                print(f"resuming: {len(expected)} {kind} cells journaled done "
                      "(replayed from cache)", file=sys.stderr)
        else:
            Path(args.journal).unlink(missing_ok=True)
        journal = RunJournal(args.journal, faults=options.get("faults", NULL_FAULTS))
        journal.begin(kind, request.identity, {**manifest, "profile": args.profile})
    try:
        outcome = execute(
            request, journal=journal, expected=expected, jobs=args.jobs,
            cache_dir=args.cache_dir, use_cache=not args.no_cache, **options,
        )
    except (CampaignError, ValueError) as exc:  # failed cells, bad runner options
        raise SystemExit(str(exc))
    finally:
        if journal is not None:
            journal.close()
    return outcome, expected


def _cmd_campaign(args) -> int:
    from repro.faults import NULL_FAULTS, load_fault_plan

    if args.max_retries < 0:
        raise SystemExit("--max-retries must be >= 0")
    faults = NULL_FAULTS
    if args.inject_faults:
        try:
            faults = load_fault_plan(args.inject_faults)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"--inject-faults: {exc}")
    overrides: dict = {}
    if args.churn_model:
        overrides["churn_model"] = args.churn_model
    if args.recovery:
        overrides["recovery_policy"] = args.recovery
    if args.telemetry:
        overrides["telemetry"] = True
    overrides.update(_parse_overrides(args.overrides))  # --set wins
    manifest = {
        "scenario": args.scenario,
        "algorithms": args.algorithms,
        "seeds": args.seeds,
        "overrides": overrides,
    }
    progress = None
    if not args.quiet:
        def progress(run):  # noqa: ANN001
            src = "cache" if run.from_cache else f"{run.wall_seconds:.1f}s"
            print(f"  [{run.label}] {run.result.n_done}/{run.result.n_workflows} done, "
                  f"ACT={run.result.act:.0f}s AE={run.result.ae:.3f} ({src})",
                  file=sys.stderr)
    campaign, expected = _run_request(
        args, "campaign", manifest, base_config(args.profile), faults=faults,
        progress=progress, max_retries=args.max_retries,
        retry_backoff=args.retry_backoff,
    )
    if expected is not None:
        replayed = sum(1 for run in campaign if run.cache_key in expected and run.from_cache)
        print(
            f"resume verified: {replayed} journaled cells replayed from "
            "cache, digests match",
            file=sys.stderr,
        )
    headers = ["run", "finished", "ACT (s)", "AE", "source"]
    rows = [
        [
            run.label,
            f"{run.result.n_done}/{run.result.n_workflows}",
            round(float(run.result.act)),
            round(float(run.result.ae), 3),
            "cache" if run.from_cache else f"{run.wall_seconds:.1f}s",
        ]
        for run in campaign
    ]
    print(ascii_table(headers, rows))
    print(f"{len(campaign)} runs ({campaign.n_cached} from cache) in "
          f"{campaign.wall_seconds:.1f}s wall | fingerprint {campaign.fingerprint()}")
    if args.telemetry:
        print("\n== campaign telemetry ==")
        for line in campaign.telemetry_summary().summary_lines():
            print(f"  {line}")
    if args.csv:
        path = write_table_csv(args.csv, headers, rows)
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    import json

    from repro.experiments.sweep import format_envelope

    shape: dict = {}
    resolution, max_scale = args.resolution, args.max_scale
    if args.quick:
        # CI smoke shape: same search/caching/report paths on a grid small
        # enough that the whole envelope fits in a couple of minutes.
        shape = dict(n_nodes=24, load_factor=1, total_time=8 * 3600.0)
        resolution, max_scale = max(resolution, 0.5), min(max_scale, 2.0)
    manifest = {
        "scenarios": args.scenarios,
        "algorithms": args.algorithms,
        "seeds": args.seeds,
        "overrides": _parse_overrides(args.overrides),
        "threshold": args.threshold,
        "resolution": resolution,
        "max_scale": max_scale,
    }
    progress = None
    if not args.quiet:
        def progress(scenario, algorithm, probe):  # noqa: ANN001
            src = "cache" if probe.from_cache else "run"
            verdict = "pass" if probe.passed else "FAIL"
            print(f"  [{scenario}/{algorithm}] x{probe.scale:g}: "
                  f"{probe.n_done}/{probe.n_workflows} done "
                  f"(rate {probe.completion_rate:.3f}, {verdict}, {src})",
                  file=sys.stderr)
    report, _ = _run_request(
        args, "sweep", manifest, base_config(args.profile, **shape),
        probe_progress=progress,
    )
    print(format_envelope(report))
    total = sum(
        cell["n_probes"]
        for entry in report["scenarios"]
        for cell in entry["heuristics"].values()
    )
    cached = sum(
        cell["n_cached"]
        for entry in report["scenarios"]
        for cell in entry["heuristics"].values()
    )
    print(f"{total} probes ({cached} from cache), criterion: completion rate "
          f">= {args.threshold:g} over seeds {args.seeds}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 0


def _cmd_bench(args) -> int:
    import json

    from repro.perf.bench import (
        DEFAULT_REPORT_NAME,
        discover_baseline,
        run_bench,
        speedup_regressions,
        validate_report,
        write_report,
    )

    if args.output is None:
        args.output = DEFAULT_REPORT_NAME
    if args.regression_threshold is not None and not args.baseline:
        raise SystemExit("--regression-threshold requires --baseline")
    baseline = None
    baseline_path = args.baseline
    if baseline_path == "auto":
        found = discover_baseline(".", exclude=args.output, quick=args.quick)
        if found is None:
            mode = "quick" if args.quick else "full-size"
            raise SystemExit(
                f"--baseline: no {mode} BENCH_PR*.json found in the current "
                "directory to auto-discover (run from the repo root or "
                "pass an explicit report path; quick runs only match "
                "committed quick baselines and vice versa)"
            )
        baseline_path = str(found)
        print(f"baseline: {baseline_path} (auto-discovered)", file=sys.stderr)
    if baseline_path:
        try:
            with open(baseline_path) as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read baseline report {baseline_path}: {exc}")
    progress = None
    if not args.quiet:
        def progress(entry):  # noqa: ANN001
            print(f"  [{entry['name']}] {entry['wall_seconds']:.2f}s wall, "
                  f"{entry['events']} events ({entry['events_per_sec']:.0f}/s), "
                  f"{entry['n_done']}/{entry['n_workflows']} workflows done",
                  file=sys.stderr)
    try:
        report = run_bench(
            scenarios=args.scenarios,
            quick=args.quick,
            repeats=args.repeats,
            profile_top=args.profile_top,
            baseline=baseline,
            telemetry=args.telemetry,
            progress=progress,
        )
    except ValueError as exc:
        # Unknown scenario name (lists the valid ones) or a quick/full
        # baseline mode mismatch — both raised before any timing runs.
        raise SystemExit(str(exc))
    problems = validate_report(report)
    if problems:  # pragma: no cover - defensive (the harness emits valid reports)
        raise SystemExit("invalid bench report: " + "; ".join(problems))
    path = write_report(report, args.output)
    print(f"wrote {path}")
    for name, factor in report.get("speedup", {}).items():
        print(f"  {name}: {factor:.2f}x vs baseline "
              f"({report['baseline']['scenarios'][name]['wall_seconds']:.2f}s -> "
              f"{dict((s['name'], s) for s in report['scenarios'])[name]['wall_seconds']:.2f}s)")
    if args.regression_threshold is not None:
        problems = speedup_regressions(report, args.regression_threshold)
        if problems:
            raise SystemExit("performance regression: " + "; ".join(problems))
    return 0


def _cmd_trace(args) -> int:
    import json

    from repro.obs.spans import format_trace_summary, summarize_chrome_trace

    try:
        with open(args.trace_file, encoding="utf-8") as fh:
            trace = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read trace {args.trace_file}: {exc}")
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise SystemExit(
            f"{args.trace_file}: not a Chrome trace-event document "
            "(expected a JSON object with a traceEvents array)"
        )
    print(format_trace_summary(summarize_chrome_trace(trace)))
    return 0


def _cmd_serve(args) -> int:
    from repro.service.app import serve

    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    if args.max_pending is not None and args.max_pending < 1:
        raise SystemExit("--max-pending must be >= 1")
    return serve(
        host=args.host,
        port=args.port,
        verbose=args.verbose,
        cache_dir=args.cache_dir,
        index_path=args.index,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        journal_path=args.journal,
        max_pending=args.max_pending,
    )


def _cmd_figure(args) -> int:
    from repro.experiments.request import campaign_of, execute

    entry = FIGURES[args.figure]
    progress = None
    if not args.quiet:
        def progress(run):  # noqa: ANN001
            r = run.result
            print(f"  [{run.label}] {r.n_done}/{r.n_workflows} done, "
                  f"ACT={r.act:.0f}s AE={r.ae:.3f} ({r.wall_seconds:.1f}s wall)",
                  file=sys.stderr)
    specs = figure_cells(entry, base_config(args.profile, seed=args.seed), args.profile)
    campaign = execute(campaign_of(specs), jobs=1, use_cache=False, progress=progress)
    result = fold_figure(entry, campaign.results(), args.profile)
    print(f"== {result.title} ==")
    if result.categories:
        headers = ["series"] + result.categories
        rows = []
        for label, (_, ys) in result.series.items():
            rows.append([label] + [round(y, 3) for y in ys])
        print(ascii_table(headers, rows))
    else:
        print(
            ascii_plot(
                result.series, xlabel=result.xlabel, ylabel=result.ylabel
            )
        )
        finals = result.final_values()
        rows = [[k, round(v, 3)] for k, v in sorted(finals.items(), key=lambda kv: kv[1])]
        print(ascii_table(["series", f"final {result.ylabel}"], rows))
    if args.csv:
        path = write_series_csv(args.csv, result.series)
        print(f"wrote {path}")
    return 0


def _cmd_table(args) -> int:
    if args.table == "1":
        print("== Table I: experimental setting ==")
        print(ascii_table(["parameter", "value"], table1_settings()))
        return 0
    args.figure = "table2"
    args.csv = None
    args.quiet = False
    return _cmd_figure(args)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point (console script ``repro``)."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "table":
        return _cmd_table(args)
    if args.command == "list":
        for name in available_algorithms():
            print(name)
        return 0
    if args.command == "scenarios":
        from repro.workload.scenarios import get_scenario

        rows = []
        for name in available_scenarios():
            sc = get_scenario(name)
            rows.append([name, sc.kind, sc.provenance, sc.description])
        print(ascii_table(["scenario", "kind", "provenance", "description"], rows))
        return 0
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
