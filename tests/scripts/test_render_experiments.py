"""``scripts/render_experiments.py``'s record, rendered from canned
``collect_experiments.py`` rows (no simulation)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.experiments.figures import FIGURES, base_config, figure_cells

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "render_experiments.py"
spec = importlib.util.spec_from_file_location("render_experiments", SCRIPT)
render_experiments = importlib.util.module_from_spec(spec)
spec.loader.exec_module(render_experiments)

META = {"profile": "small", "seed": 7, "jobs": 3, "wall_total": 42.0,
        "n_cached": 0, "fingerprint": "f" * 64}


def canned_row(label: str, i: int) -> dict:
    hours = [float(h) for h in range(1, 13)]
    return {
        "label": label, "algorithm": "dsmf", "n_nodes": 80, "n_workflows": 240,
        "n_done": 240, "n_failed": 0, "act": 20_000.0 + 100 * i,
        "ae": 0.3 + 0.01 * i, "rss_mean": 12.0 + i, "events": 1000,
        "wall": 1.0, "cached": False,
        "series": {"hours": hours, "throughput": [20.0 * h for h in hours],
                   "act": [1000.0 * h for h in hours],
                   "ae": [0.5 - 0.01 * h for h in hours]},
    }


def write_results(root: Path) -> None:
    base = base_config("small", seed=META["seed"])
    for entry in FIGURES.values():
        cells = figure_cells(entry, base, "small")
        runs = [canned_row(s.label, i) for i, s in enumerate(cells)]
        (root / f"{entry.figure}_small.json").write_text(
            json.dumps({"meta": META, "runs": runs})
        )


def test_every_figure_has_a_section_and_the_provenance_is_the_collections(tmp_path):
    write_results(tmp_path)
    text = render_experiments.render("small", tmp_path)
    for name, entry in FIGURES.items():
        heading = '## "Table II"' if name == "table2" else f"## Fig. {name} — "
        assert heading in text, name
    assert "seed 7;" in text
    assert "at `--jobs 3`" in text
    assert "80 nodes, 240 workflows (load factor 3), 12 simulated hours" in text
    # Table II lists every base heuristic the table runs, DSMF included.
    assert "| dsmf | — | — |" in text
