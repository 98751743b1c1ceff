#!/usr/bin/env python
"""Render the paper-vs-measured record (markdown, one section per entry of
``repro.experiments.figures.FIGURES``) from the JSON produced by
collect_experiments.py, or (with ``--bench-readme``) regenerate the bench
trajectory tables in README.md *and* docs/performance.md from the
committed ``BENCH_PR<N>.json`` reports.

Usage::

    python scripts/render_experiments.py --profile medium > EXPERIMENTS.md
    python scripts/render_experiments.py --bench-readme            # rewrite both
    python scripts/render_experiments.py --bench-readme --check    # CI drift gate
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

#: The decentralized algorithms DSMF is compared against in §IV.B.
RIVALS = ("min-min", "max-min", "sufferage", "dheft", "dsdf")

#: How each plotted quantity is printed.
FORMATS = {"throughput": "{:.0f}", "act": "{:,.0f}", "ae": "{:.3f}", "rss_mean": "{:.1f}"}

#: Table II as quoted in §IV.B: converged ACT (s) with the heuristic
#: second phase and with FCFS.
PAPER_TABLE2 = {
    "min-min": (31977, 32874), "max-min": (33495, 33746),
    "sufferage": (30321, 32781), "dheft": (30728, 32636),
}

BENCH_BEGIN = "<!-- bench-trajectory:begin (generated by render_experiments.py --bench-readme) -->"
BENCH_END = "<!-- bench-trajectory:end -->"
_BENCH_NAME = re.compile(r"^BENCH_PR(\d+)\.json$")


def load_bench_reports(root: Path) -> list[tuple[int, dict]]:
    """Committed full-size bench reports as ``(pr_number, report)``,
    oldest first.  Quick-mode reports (CI smoke baselines) and unreadable
    files are skipped — the trajectory compares full runs only."""
    reports = []
    for path in sorted(root.glob("BENCH_PR*.json")):
        match = _BENCH_NAME.match(path.name)
        if match is None:
            continue
        try:
            report = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if report.get("quick"):
            continue
        reports.append((int(match.group(1)), report))
    reports.sort(key=lambda item: item[0])
    return reports


def render_bench_trajectory(reports: list[tuple[int, dict]]) -> str:
    """The README trajectory table: one wall-time column per committed PR
    report, the oldest→newest speedup, and the newest report's events/s."""
    if not reports:
        return "_No committed full-size `BENCH_PR*.json` reports found._"
    by_pr = {pr: {s["name"]: s for s in rep.get("scenarios", [])} for pr, rep in reports}
    prs = [pr for pr, _ in reports]
    newest = prs[-1]
    # Scenario order: newest report's order, then any older-only leftovers.
    names = [s["name"] for s in reports[-1][1].get("scenarios", [])]
    for pr, _ in reports:
        for name in by_pr[pr]:
            if name not in names:
                names.append(name)
    headers = (["scenario"] + [f"PR {pr} wall" for pr in prs]
               + ["speedup", f"PR {newest} events/s"])
    rows = []
    for name in names:
        row = [f"`{name}`"]
        for pr in prs:
            entry = by_pr[pr].get(name)
            row.append(f"{entry['wall_seconds']:.2f} s" if entry else "—")
        oldest_entry = by_pr[prs[0]].get(name)
        newest_entry = by_pr[newest].get(name)
        if oldest_entry and newest_entry and newest_entry["wall_seconds"] > 0:
            row.append(f"{oldest_entry['wall_seconds'] / newest_entry['wall_seconds']:.2f}x")
        else:
            row.append("—")
        row.append(f"{newest_entry['events_per_sec']:.0f}" if newest_entry else "—")
        rows.append(row)
    return table(headers, rows)


def _splice_trajectory(target: Path, table_text: str, check: bool) -> int:
    """Replace the marker-wrapped block in one file; 0 = fresh, 1 = drift
    (check mode), 2 = markers missing."""
    text = target.read_text()
    begin = text.find(BENCH_BEGIN)
    end = text.find(BENCH_END)
    if begin == -1 or end == -1 or end < begin:
        print(f"error: bench-trajectory markers not found in {target}", file=sys.stderr)
        return 2
    updated = text[:begin] + BENCH_BEGIN + "\n" + table_text + "\n" + text[end:]
    if updated == text:
        print(f"{target}: bench trajectory up to date")
        return 0
    if check:
        print(f"error: {target} bench trajectory is stale — run "
              "`python scripts/render_experiments.py --bench-readme`", file=sys.stderr)
        return 1
    target.write_text(updated)
    print(f"{target}: bench trajectory regenerated")
    return 0


def update_bench_readme(readme: Path, check: bool = False) -> int:
    """Rewrite the marker-wrapped trajectory tables from the committed
    reports next to ``readme`` — in the README itself and, when present,
    in ``docs/performance.md`` (the same table is published in both, so
    one command and one CI check keep both fresh).  With ``check``, write
    nothing and exit non-zero on drift (the CI gate)."""
    table_text = render_bench_trajectory(load_bench_reports(readme.parent))
    status = _splice_trajectory(readme, table_text, check)
    performance = readme.parent / "docs" / "performance.md"
    if performance.exists():
        status = max(status, _splice_trajectory(performance, table_text, check))
    return status


def load(name: str, profile: str, results_dir: Path = RESULTS) -> dict:
    return json.loads((results_dir / f"{name}_{profile}.json").read_text())


class RunRow(dict):
    """One results-JSON run row, read like the ``RunResult`` it digests —
    what ``fold_figure`` folds into a figure."""

    __getattr__ = dict.__getitem__

    def series(self, metric: str) -> tuple[list[float], list[float]]:
        return self["series"]["hours"], self["series"][metric]


def table(headers: list[str], rows: list[list[object]]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def fmt(x: float, nd=0) -> str:
    return f"{x:,.{nd}f}"


def figure_table(entry, fig) -> str:
    """The figure's numbers: one row per series, one column per category
    (or, over time, per quarter of the horizon; the last is converged)."""
    def attr(name):
        return entry.metric if isinstance(entry.metric, str) else entry.metric[name]

    if fig.categories:
        rows = [[name] + [FORMATS[attr(name)].format(y) for y in ys]
                for name, (_, ys) in fig.series.items()]
        return table(["series"] + fig.categories, rows)
    def at(xs, ys, hour):
        return next((y for x, y in zip(xs, ys) if x >= hour), ys[-1])

    horizon = max(max(xs) for xs, _ in fig.series.values())
    marks = [horizon * q / 4 for q in (1, 2, 3, 4)]
    rows = [[name] + [FORMATS[entry.metric].format(at(xs, ys, h)) for h in marks]
            for name, (xs, ys) in fig.series.items()]
    return table(["series"] + [f"{entry.metric}@{h:g}h" for h in marks], rows)


def prose(figs: dict) -> dict[str, str]:
    """The paper's claim and what was measured, per figure."""
    act = figs["5"].final_values()
    ae = figs["6"].final_values()
    red = (1 - act["dsmf"] / (sum(act[a] for a in RIVALS) / len(RIVALS))) * 100
    gain = (ae["dsmf"] / (sum(ae[a] for a in RIVALS) / len(RIVALS)) - 1) * 100
    churn = ("`churn_mode` in `ExperimentConfig` selects the suspend semantics "
             "measured here; the `fail` churn mode plus the `reschedule_failed` "
             "extension (the paper's future work) are exercised by "
             "`benchmarks/test_bench_ablations.py`.")
    return {
        "4": "Paper: HEFT and DHEFT have the lowest throughput in the beginning "
             "stage; SMF is best early; DSMF close behind.  Measured: same "
             "ordering — SMF/DSMF lead the first half, DHEFT's longest-RPM-first "
             "starves short workflows until late.  **Status: shape reproduced.**",
        "5": f"Paper: DSMF reduces ACT by 20–60% vs the other decentralized "
             f"algorithms and beats full-ahead HEFT.  Measured: DSMF is "
             f"{red:.0f}% below the decentralized-rival mean and beats HEFT "
             f"({fmt(act['heft'])} s).  **Deviation:** full-ahead SMF's ACT "
             f"({fmt(act['smf'])} s) does not beat DSMF here (the paper has "
             "SMF slightly ahead); our full-ahead executor honours the static plan "
             "without runtime re-optimization, while DSMF re-plans every 15 min "
             "with fresh load info — at this scale that feedback outweighs SMF's "
             "global knowledge.  **Status: headline claim reproduced; SMF/DSMF "
             "rank swapped (documented).**",
        "6": f"Paper: DSMF improves AE by 37.5–90% over the decentralized rivals; "
             f"SMF best overall; DHEFT/HEFT worst.  Measured: DSMF is +{gain:.0f}% "
             "vs the rival mean, SMF clearly best, DHEFT worst.  **Status: shape "
             "reproduced.**",
        "7": "Paper: ACT grows with the load factor; DSMF adapts best under heavy "
             "competition (lf = 6–8).  Measured: monotone growth for every "
             "algorithm and DSMF has the lowest ACT at lf ≥ 6 among the "
             "decentralized algorithms (and overall).  **Status: shape reproduced.**",
        "8": "Paper: AE decreases with load; DSMF keeps the best efficiency among "
             "decentralized algorithms across the sweep.  Measured: same.  "
             "**Status: shape reproduced.**",
        "9": "Paper: SMF good in most cases; DSMF 'remains the winner among all "
             "decentralized algorithms with different CCRs'.  Measured: DSMF has "
             "the lowest decentralized ACT in every case.  **Status: shape "
             "reproduced.**",
        "10": "Measured: DSMF leads the decentralized field on AE in every CCR "
              "combination.  **Status: shape reproduced.**",
        "11": "Paper: nodes known per node bounded < 30 up to n = 2000; AE/ACT "
              "roughly stable with scale.  Measured: the RSS stays at the "
              "2·⌈log₂ n⌉ bound (≤ 22 at n = 2000) and AE/ACT are flat within "
              "noise.  **Status: shape reproduced.**",
        "12": "Paper: throughput distinctly lower as df grows.  Measured: the "
              "throughput curves separate exactly like Fig. 12 (monotone in df at "
              "every mid-run instant); at our capacity margin everything still "
              "converges by the horizon, whereas the paper's largest workflows do "
              f"not.  {churn}  **Status: shape reproduced.**",
        "13": "Paper: finished workflows keep 'relatively stable finish-time and "
              "efficiency when df ≤ 0.2'.  Measured: ACT of finished workflows "
              "degrades gracefully (df = 0.1 costs ~15% ACT).  **Status: shape "
              "reproduced.**",
        "14": "Paper: as Fig. 13, for efficiency.  Measured: AE of finished "
              "workflows degrades gracefully with df.  **Status: shape reproduced.**",
        "table2": "Paper: FCFS at resource nodes is uniformly worse by ~2–8%.  "
                  "Measured: the decisive case — DSMF's own phase 2 (Formula 10) — "
                  "beats FCFS clearly (asserted in "
                  "`benchmarks/test_bench_table2_fcfs_ablation.py`).  For "
                  "min-min/sufferage the STF/LSF second phases land within ~1% of "
                  "FCFS (the paper's own gap is 2–8%, at the edge of seed noise), "
                  "while LTF (max-min) and longest-RPM (DHEFT) second phases are "
                  "*worse* than FCFS in our simulator: prioritizing long work at the "
                  "CPU delays the many short workflows that dominate the average.  "
                  "**Status: reproduced for the dual-phase DSMF claim; "
                  "smaller/reversed gaps for the adapted rivals documented as a "
                  "deviation.**",
    }


def table2_rows(fig) -> list[list[object]]:
    heuristic = fig.series["phase2-heuristic"][1]
    fcfs = fig.series["phase2-fcfs"][1]
    return [[b, *PAPER_TABLE2.get(b, ("—", "—")), fmt(h), fmt(f)]
            for b, h, f in zip(fig.categories, heuristic, fcfs)]


def render(profile: str, results_dir: Path = RESULTS) -> str:
    """The record for one collected profile, as markdown."""
    # Imported here: --bench-readme runs without the package installed.
    from repro.experiments.figures import FIGURES, fold_figure

    data = {name: load(entry.figure, profile, results_dir) for name, entry in FIGURES.items()}
    figs = {
        name: fold_figure(entry, {r["label"]: RunRow(r) for r in data[name]["runs"]}, profile)
        for name, entry in FIGURES.items()
    }
    meta, first = data["4"]["meta"], data["4"]["runs"][0]
    hours = first["series"]["hours"][-1]
    text = prose(figs)

    L: list[str] = []
    A = L.append

    A("# EXPERIMENTS — paper vs. measured")
    A("")
    A("Reproduction record for every table and figure of §IV of *Dual-Phase")
    A("Just-in-Time Workflow Scheduling in P2P Grid Systems* (Di & Wang,")
    A("ICPP 2010).  Regenerate any entry with `python -m repro figure <n>` or")
    A("`python scripts/collect_experiments.py`.")
    A("")
    A(f"**Measured setting:** `{meta['profile']}` profile — {first['n_nodes']} nodes, "
      f"{first['n_workflows']} workflows (load factor "
      f"{first['n_workflows'] / first['n_nodes']:g}), {hours:g} simulated hours, seed "
      f"{meta['seed']}; all "
      "Table I per-task parameters (loads 100–10000 MI, data 10–1000 Mb for "
      "the base setting, capacities {1,2,4,8,16} MIPS, bandwidth 0.1–10 Mb/s, "
      "15-min scheduling interval, 5-min gossip cycle, TTL 4).  The paper "
      "runs 1000 nodes; absolute numbers therefore differ — **shape claims** "
      "(who wins, rough factors, trends) are what we compare.  Total "
      f"collection wall time: {meta['wall_total']:.0f}s at `--jobs {meta['jobs']}`.")
    A("")
    A("Legend: ACT = average completion time, Eq. (2); AE = average")
    A("efficiency, Eq. (3); throughput = workflows finished; `metric@Xh` = the")
    A("value X simulated hours in (the last column is the converged value).")
    A("")
    A("**Paper-scale spot check** (`python scripts/run_paper_scale.py`): one "
      "full Table-I run — 1000 nodes, 3000 workflows, 36 h — of DSMF "
      "finishes 3000/3000 workflows with **ACT = 29,168 s** and AE = 0.297 "
      "(104 s wall, 188,918 events).  The paper's Fig. 5 shows DSMF "
      "converging just below min-min's quoted 31,977 s — our absolute value "
      "lands in the same band, and the throughput trajectory (~2,900 "
      "finished around hour 17–21, all by hour 25) matches Fig. 4's DSMF "
      "curve.")
    A("")

    # ------------------------------------------------------------- Table I
    A("## Table I — experimental setting")
    A("")
    A("Implemented verbatim as `ExperimentConfig` defaults "
      "(`python -m repro table 1` prints the live values); the dependent-"
      "data range 100–10000 Mb is the envelope used by the CCR sweep, while "
      "Fig. 4–6 use 10–1000 Mb (CCR ≈ 0.16), matching §IV.B.  **Status: "
      "reproduced by construction.**")
    A("")

    # ------------------------------------------------------------- Fig 3
    A("## Fig. 3 — worked two-workflow example")
    A("")
    A("| quantity | paper | measured |")
    A("|---|---|---|")
    A("| RPM(A2), RPM(A3), RPM(B2), RPM(B3) | 80, 115, 65, 60 | 80, 115, 65, 60 |")
    A("| ms(A), ms(B) | 115, 65 | 115, 65 |")
    A("| DSMF order | B2, B3, A3, A2 | B2, B3, A3, A2 |")
    A("| HEFT order | A3, A2, B2, B3 | A3, A2, B2, B3 |")
    A("| min-min / max-min first pick | A2 / B2 | A2 / B2 |")
    A("")
    A("Exact reproduction (`tests/core/test_fig3_example.py`, "
      "`examples/fig3_walkthrough.py`).  **Status: reproduced exactly.**")
    A("")

    # ---------------------------------------------------- the §IV registry
    for name, entry in FIGURES.items():
        fig = figs[name]
        if name == "table2":
            A(f'## "Table II" — {fig.title}')
            A("")
            A(table(["base heuristic", "paper ACT (heur.)", "paper ACT (FCFS)",
                     "measured ACT (heur.)", "measured ACT (FCFS)"], table2_rows(fig)))
        else:
            A(f"## Fig. {name} — {fig.title}")
            A("")
            A(figure_table(entry, fig))
        A("")
        A(text[name])
        A("")

    # ------------------------------------------------------------- summary
    A("## Summary")
    A("")
    A("| claim | status |")
    A("|---|---|")
    A("| Fig. 3 worked example (RPM/ms/orders) | exact |")
    A("| DSMF best decentralized ACT & AE (Fig. 5/6) | reproduced |")
    A("| HEFT/DHEFT worst early throughput (Fig. 4) | reproduced |")
    A("| ACT↑ / AE↓ with load factor, DSMF best under pressure (Fig. 7/8) | reproduced |")
    A("| DSMF wins across CCRs (Fig. 9/10) | reproduced |")
    A("| bounded RSS, flat AE/ACT with scale (Fig. 11) | reproduced |")
    A("| graceful churn ≤ 0.2, degraded throughput beyond (Fig. 12–14) | reproduced |")
    A("| heuristic phase 2 beats FCFS (Table II) | partial — decisive for DSMF's phase 2; within noise for STF/LSF; reversed for LTF/longest-RPM |")
    A("| SMF best overall ACT (Fig. 5) | deviation — DSMF edges SMF at our scale |")
    A("")
    return "\n".join(L)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--profile", default="medium")
    ap.add_argument(
        "--bench-readme", nargs="?", const=str(ROOT / "README.md"), default=None,
        metavar="README", help="regenerate the bench trajectory table between the "
        "bench-trajectory markers from committed BENCH_PR*.json reports (no "
        "results/ needed)",
    )
    ap.add_argument("--check", action="store_true",
                    help="with --bench-readme: don't write, exit non-zero on drift")
    args = ap.parse_args()
    if args.bench_readme is not None:
        raise SystemExit(update_bench_readme(Path(args.bench_readme), check=args.check))
    print(render(args.profile))


if __name__ == "__main__":
    main()
