"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.experiments.cli import build_parser, main


def test_list_prints_algorithms(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "dsmf" in out
    assert "heft" in out


def test_table1(capsys):
    assert main(["table", "1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "node capacity" in out


def test_run_small(capsys):
    rc = main(
        ["run", "-a", "dsmf", "-n", "24", "-l", "1", "--hours", "4", "--seed", "2"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "[dsmf]" in out
    assert "ACT" in out


def test_run_rejects_unknown_algorithm():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "-a", "bogus"])


def test_campaign_small_sweep(capsys, tmp_path):
    argv = [
        "campaign", "-a", "dsmf", "--seeds", "1", "2", "--jobs", "1",
        "--cache-dir", str(tmp_path), "--quiet",
        "--set", "n_nodes=24", "--set", "load_factor=1",
        "--set", "total_time=14400.0", "--set", "task_range=(2, 10)",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "dsmf#s1" in out and "dsmf#s2" in out
    assert "0 from cache" in out
    assert "fingerprint" in out
    fingerprint = out.split("fingerprint")[-1].strip()

    # Re-invocation replays both runs from cache, bit-identically.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "2 from cache" in out
    assert out.split("fingerprint")[-1].strip() == fingerprint


def test_campaign_rejects_malformed_override():
    with pytest.raises(SystemExit):
        main(["campaign", "--set", "nonsense", "--no-cache"])


def test_campaign_rejects_unknown_config_field():
    with pytest.raises(SystemExit, match="invalid --set override"):
        main(["campaign", "--set", "not_a_field=3", "--no-cache"])


def test_campaign_rejects_per_cell_fields_in_set():
    # algorithm/seed are sweep axes; --set would be silently overwritten.
    with pytest.raises(SystemExit, match="--algorithms/--seeds"):
        main(["campaign", "--set", "algorithm=dheft", "--no-cache"])
    with pytest.raises(SystemExit, match="--algorithms/--seeds"):
        main(["campaign", "--set", "seed=9", "--no-cache"])


def test_campaign_parser_defaults():
    args = build_parser().parse_args(["campaign"])
    assert args.algorithms == ["dsmf"]
    assert args.seeds == [1]
    assert args.jobs == 1
    assert not args.no_cache
    assert args.scenario is None


def test_scenarios_lists_presets(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    assert "paper-fig4" in out
    assert "poisson-steady" in out
    assert "bit-identical" in out  # descriptions shown


def test_campaign_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["campaign", "--scenario", "nope"])


def test_campaign_rejects_scenario_via_set():
    with pytest.raises(SystemExit, match="--scenario NAME"):
        main(["campaign", "--set", "scenario=paper-fig4", "--no-cache"])


def test_campaign_with_scenario(capsys, tmp_path):
    argv = [
        "campaign", "-a", "dsmf", "--seeds", "1", "--quiet", "--no-cache",
        "--scenario", "poisson-steady",
        "--set", "n_nodes=24", "--set", "load_factor=1",
        "--set", "total_time=14400.0", "--set", "task_range=(2, 6)",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "dsmf#s1" in out
    assert "fingerprint" in out


def test_run_with_scenario(capsys):
    rc = main(
        ["run", "-a", "dsmf", "-n", "24", "-l", "1", "--hours", "4",
         "--seed", "2", "--scenario", "burst-storm"]
    )
    assert rc == 0
    assert "[dsmf]" in capsys.readouterr().out


def test_run_scenario_needing_path_exits_cleanly():
    with pytest.raises(SystemExit, match="workload_path"):
        main(["run", "-a", "dsmf", "-n", "24", "-l", "1", "--hours", "4",
              "--scenario", "imported-dag"])


def test_run_scenario_with_workload_path(capsys, tmp_path):
    from repro.workflow.generator import diamond_workflow
    from repro.workflow.io import save_workflow

    save_workflow(diamond_workflow("d"), tmp_path / "d.json")
    rc = main(["run", "-a", "dsmf", "-n", "24", "-l", "1", "--hours", "4",
               "--scenario", "imported-dag",
               "--workload-path", str(tmp_path / "d.json")])
    assert rc == 0
    assert "[dsmf]" in capsys.readouterr().out


def test_figure_end_to_end(capsys, tmp_path):
    """``repro figure 12`` at the small profile: five churn runs, the
    plot, the final-value table and the CSV."""
    csv = tmp_path / "fig12.csv"
    assert main(["figure", "12", "--profile", "small", "--csv", str(csv)]) == 0
    captured = capsys.readouterr()
    assert "== Throughput of DSMF in Dynamic Environment ==" in captured.out
    assert f"wrote {csv}" in captured.out
    labels = [f"dynamic factor={df:g}" for df in (0.0, 0.1, 0.2, 0.3, 0.4)]
    for label in labels:
        assert f"[{label}]" in captured.err  # per-run progress
    rows = csv.read_text().splitlines()
    assert rows[0] == "series,x,value"
    assert [row.split(",")[0] for row in rows[1:]] == [
        label for label in labels for _ in range(len(rows[1:]) // 5)
    ]


def test_figure_requires_known_figure():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "99"])


def test_parser_profile_choices():
    args = build_parser().parse_args(["figure", "4", "--profile", "paper"])
    assert args.profile == "paper"


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.fixture
def no_runs(monkeypatch):
    """Fail the test if any cell is handed to a runner."""
    from repro.experiments.campaign import CampaignRunner

    def run(self, specs):
        pytest.fail(f"a run started: {[s.label for s in specs]}")

    monkeypatch.setattr(CampaignRunner, "run", run)


@pytest.mark.parametrize(
    "override, fragment",
    [
        ("workload_path=5", "workload_path must be a path string"),
        ("total_time=1e999", "total_time must be finite"),
        ("workload_scale=-1e999", "workload_scale must be finite"),
        ("telemetry=b'x'", "telemetry must be True or False"),
    ],
)
def test_campaign_rejects_unrunnable_override(no_runs, override, fragment):
    with pytest.raises(SystemExit, match=f"invalid --set override: {fragment}"):
        main(["campaign", "--set", override, "--no-cache", "--quiet"])


def test_sweep_rejects_duplicate_scenarios(no_runs):
    with pytest.raises(SystemExit, match="duplicate scenario"):
        main(["sweep", "--quick", "--no-cache", "--quiet",
              "--scenarios", "paper-fig4", "paper-fig4"])
