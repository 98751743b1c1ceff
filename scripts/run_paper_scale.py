#!/usr/bin/env python
"""Run the paper-scale (Table I exact) base experiment for one algorithm.

1000 nodes, 3000 workflows, 36 simulated hours — minutes of wall time per
run.  Useful to spot-check that the medium-profile numbers collected by
``collect_experiments.py`` (and rendered by ``render_experiments.py``)
extrapolate.  Multiple seeds fan out across worker
processes, and completed runs land in the campaign cache, so re-invoking
with an overlapping seed list only pays for the new seeds.

Usage::

    python scripts/run_paper_scale.py --algorithm dsmf --seeds 1 2 3 --jobs 3
"""

from __future__ import annotations

import argparse
import os

from repro.experiments.campaign import CampaignRunner, sweep_specs
from repro.experiments.config import ExperimentConfig


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--algorithm", default="dsmf")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--dynamic-factor", type=float, default=0.0)
    ap.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    ap.add_argument("--cache-dir", default=None)
    ap.add_argument("--no-cache", action="store_true")
    args = ap.parse_args()

    # All other defaults == Table I / Fig. 4-6 setting.
    base = ExperimentConfig(dynamic_factor=args.dynamic_factor)
    specs = sweep_specs([args.algorithm], args.seeds, base=base)
    print(f"paper-scale campaign: {base.n_nodes} nodes, "
          f"{base.load_factor * base.n_nodes} workflows, "
          f"{base.total_time / 3600:.0f} h, algorithm={args.algorithm}, "
          f"seeds={args.seeds}")

    runner = CampaignRunner(
        jobs=min(args.jobs, len(specs)),
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    campaign = runner.run(specs)
    for run in campaign:
        src = " (cache)" if run.from_cache else ""
        print(f"{run.label}{src}: {run.result.summary()}")

    # Hourly trajectory of the first seed (4-hour stride, like the figures).
    first = campaign.runs[0].result
    print(f"{'hour':>5} {'finished':>9} {'ACT':>9} {'AE':>6}")
    for s in first.samples[::4]:
        print(f"{s.time / 3600:>5.0f} {s.throughput:>9} {s.act:>9.0f} {s.ae:>6.3f}")


if __name__ == "__main__":
    main()
