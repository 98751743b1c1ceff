#!/usr/bin/env python
"""Collect the data behind the paper-vs-measured record.

Runs every figure and table of ``repro.experiments.figures.FIGURES`` (the
paper's §IV) at the requested profile as one campaign request
(``repro.experiments.request.execute``) — fanned out across worker
processes, with completed runs cached on disk so re-collections (e.g.
after fixing one figure's rendering) only pay for what actually changed —
and dumps one JSON file per figure into ``results/``.  Figures that share
a grid (4–6, 7–8, 9–10, 12–14) share their runs.  ``render_experiments.py``
turns those files into the record.

Usage::

    python scripts/collect_experiments.py --profile medium --jobs 20
    python scripts/collect_experiments.py --profile small --only 12 13 14
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro.experiments.campaign import CampaignRun
from repro.experiments.figures import FIGURES, base_config, figure_cells
from repro.experiments.request import campaign_of, execute

RESULTS = Path(__file__).resolve().parent.parent / "results"


def digest(run: CampaignRun) -> dict:
    """Slim, JSON-able record of one campaign run."""
    r = run.result
    times, tp = r.series("throughput")
    _, act = r.series("act")
    _, ae = r.series("ae")
    return {
        "label": run.label,
        "algorithm": r.algorithm,
        "n_nodes": r.n_nodes,
        "n_workflows": r.n_workflows,
        "n_done": r.n_done,
        "n_failed": r.n_failed,
        "act": float(r.act),
        "ae": float(r.ae),
        "rss_mean": float(r.rss_mean),
        "events": r.events_executed,
        "wall": run.wall_seconds,
        "cached": run.from_cache,
        "series": {"hours": times, "throughput": tp, "act": act, "ae": ae},
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--profile", default="medium")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--only", nargs="*", default=None, choices=sorted(FIGURES),
                    help="subset of figures to run (FIGURES names, e.g. 12 13 14)")
    ap.add_argument("--cache-dir", default=None,
                    help="campaign cache location (default .repro_cache/campaign)")
    ap.add_argument("--no-cache", action="store_true",
                    help="force fresh runs; skip the result cache")
    args = ap.parse_args()

    RESULTS.mkdir(exist_ok=True)
    base = base_config(args.profile, seed=args.seed)
    cells = {
        name: figure_cells(FIGURES[name], base, args.profile)
        for name in (args.only or FIGURES)
    }
    # Figures sharing a grid list the same specs; run each one once.
    unique = list(dict.fromkeys(spec for specs in cells.values() for spec in specs))
    print(f"{len(unique)} runs across {len(cells)} figures "
          f"({args.jobs} workers, profile={args.profile})")

    def progress(run: CampaignRun) -> None:
        # Identical configs under different labels (Fig. 4's "dsmf" and
        # Table II's "phase2-heuristic@dsmf") are run once by the runner;
        # the per-figure JSON keeps exact attribution.
        d = run.result
        src = "cache" if run.from_cache else f"{run.wall_seconds:.0f}s"
        print(f"  [{run.label}] done={d.n_done}/"
              f"{d.n_workflows} ACT={d.act:.0f} AE={d.ae:.3f} ({src})")

    t0 = time.perf_counter()
    campaign = execute(
        campaign_of(unique),
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=progress,
    )
    by_spec = dict(zip(unique, campaign.runs))

    meta = {"profile": args.profile, "seed": args.seed, "jobs": args.jobs,
            "wall_total": time.perf_counter() - t0,
            "n_cached": campaign.n_cached,
            "fingerprint": campaign.fingerprint()}
    for name, specs in cells.items():
        out = RESULTS / f"{FIGURES[name].figure}_{args.profile}.json"
        runs = [digest(by_spec[spec]) for spec in specs]
        out.write_text(json.dumps({"meta": meta, "runs": runs}, indent=1))
        print(f"wrote {out}")
    print(f"total wall: {meta['wall_total']:.0f}s "
          f"({campaign.n_cached}/{len(campaign)} from cache)")


if __name__ == "__main__":
    main()
