"""Tests of the benchmark's own code (not of the program it measures).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import statistics

import pytest

from perfbench import hostspeed, servicebench, simbench, stats
from perfbench.run import declared_metrics, finish
from perfbench.workloads import INPUTS, PASS_SIZE, TAIL_Q, input_seeds, service_seeds, sim_config


def tiny_config(seed: int = 3):
    """Small enough for sub-second reps, with churn so every layer runs."""
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig(
        algorithm="dsmf", n_nodes=24, load_factor=1, total_time=3 * 3600.0,
        seed=seed, dynamic_factor=0.2, churn_mode="fail",
        recovery_policy="reschedule",
    )


# ---------------------------------------------------------------- stats

def test_tail_needs_ten_samples_beyond():
    assert stats.samples_needed(95) == 200
    assert stats.samples_needed(99) == 1000
    values = list(range(1, 201))
    assert stats.samples_beyond(200, 95) == 10
    assert stats.tail(values, 95) == 190
    with pytest.raises(ValueError, match="only 9 beyond"):
        stats.tail(values[:199], 95)


def test_median_tail_ignores_a_stall_in_one_window():
    steady = [float(v) for v in range(1, 201)]
    stalled = [v + 1000.0 for v in steady]
    assert stats.windows(steady * 3 + [0.0] * 50, 200) == [steady] * 3
    assert stats.median_tail([steady, stalled, steady], 95) == 190
    with pytest.raises(ValueError, match="beyond"):
        stats.median_tail([steady, steady[:150]], 95)


def test_percentile_is_nearest_rank():
    assert stats.percentile([5, 1, 3], 50) == 3
    assert stats.percentile([5, 1, 3], 100) == 5
    assert stats.percentile([7], 1) == 7


def test_quartile_spread_matches_statistics_quantiles():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / q2)


# ------------------------------------------------------------ workloads

def test_spelled_out_workloads_agree_with_the_registry():
    for name in ("metro-1k", "fig10-dynamic"):
        config, drift = sim_config(name, 7)
        assert drift is None
        assert config.seed == 7


def test_input_seeds_start_at_the_seed_and_do_not_overlap():
    assert input_seeds("fig10-dynamic", 7)[0] == 7
    assert len(input_seeds("fig10-dynamic", 7)) == INPUTS["fig10-dynamic"] > 1
    assert input_seeds("fig10-dynamic", 7, trace=True) == [7]
    assert input_seeds("metro-1k", 7) == [7]
    assert not set(input_seeds("fig10-dynamic", 1)) & set(input_seeds("fig10-dynamic", 2))


def test_service_seeds_fresh_per_cold_pass_fixed_for_hot():
    cold = [service_seeds("service-cold", 4, k) for k in range(3)]
    assert all(len(s) == PASS_SIZE for s in cold)
    assert len(set().union(*map(set, cold))) == 3 * PASS_SIZE
    assert service_seeds("service-hot", 4, 1) == service_seeds("service-hot", 4, 5)
    assert not set(service_seeds("service-cold", 4, 1)) & set(service_seeds("service-cold", 5, 1))


# ------------------------------------------------------------ sim reps

def test_traced_self_times_add_up_to_run_s():
    rep = simbench.one_rep(tiny_config(), traced=True)
    self_s = rep.clock.self_s
    run_layers = sum(v for k, v in self_s.items() if k not in ("setup",) and not k.startswith("net."))
    assert run_layers == pytest.approx(rep.run_s, rel=0.02, abs=2e-3)
    setup_layers = self_s["setup"] + self_s["net.topology"] + self_s["net.landmarks"]
    assert setup_layers == pytest.approx(rep.setup_s, rel=0.02, abs=2e-3)
    for layer in ("gossip.epidemic", "phase1.plan", "phase1.dispatch", "xfer.start", "churn.kill"):
        assert self_s[layer] > 0, layer


def test_tracing_changes_no_outcome():
    plain = simbench.one_rep(tiny_config(), traced=False)
    traced = simbench.one_rep(tiny_config(), traced=True)
    assert plain.digest == traced.digest
    for key, value in plain.counts.items():
        assert traced.counts[key] == value, key
    assert traced.counts["phase1.ft_calls"] == 2 * traced.counts["phase1.decisions"]
    assert traced.counts["phase2.selections"] > 0
    # One step per executed event, and the steps cover the whole run.
    assert len(plain.steps_ms) == plain.counts["sim.events"]
    assert sum(plain.steps_ms) / 1000.0 == pytest.approx(plain.run_s, rel=0.05)


def test_digest_mismatch_counts_as_failed(monkeypatch):
    monkeypatch.setattr(simbench, "sim_config", lambda name, seed: (tiny_config(seed), None))
    wrong = {s: {"digest": "0" * 64, "counts": {}} for s in input_seeds("fig10-dynamic", 7)}
    monkeypatch.setattr(simbench, "load_expected", lambda name: wrong)
    report = simbench.run_sim("fig10-dynamic", 7, seconds=0.01, trace=False)
    assert report["attempted"] >= 2 * INPUTS["fig10-dynamic"]
    assert report["failed"] == report["attempted"]
    assert any("digest" in p for p in report["problems"])
    out = finish(report, declared_metrics(trace=False))
    assert out["correct"] is False
    assert out["failed"] / out["attempted"] == 1.0


def test_count_mismatch_counts_as_failed(monkeypatch):
    monkeypatch.setattr(simbench, "sim_config", lambda name, seed: (tiny_config(seed), None))
    monkeypatch.setattr(simbench, "input_seeds", lambda name, seed, trace: [seed])
    rep = simbench.one_rep(tiny_config(7), traced=False)
    doubled = dict(rep.counts, **{"phase1.decisions": 2 * rep.counts["phase1.decisions"]})
    pinned = {7: {"seed": 7, "digest": rep.digest, "counts": doubled}}
    monkeypatch.setattr(simbench, "load_expected", lambda name: pinned)
    report = simbench.run_sim("fig10-dynamic", 7, seconds=0.01, trace=False)
    assert report["failed"] == report["attempted"]
    assert any("phase1.decisions" in p for p in report["problems"])


def test_unpinned_inputs_are_each_run_twice_and_averaged(monkeypatch):
    monkeypatch.setattr(simbench, "sim_config", lambda name, seed: (tiny_config(seed), None))
    report = simbench.run_sim("fig10-dynamic", 11, seconds=0.01, trace=False)
    assert report["failed"] == 0, report["problems"]
    assert report["attempted"] == 2 * INPUTS["fig10-dynamic"]
    assert {"setup_s", "run_s", "p50_ms", "p90_ms", "peak_rss_mb"} <= set(report["metrics"])


def test_end_to_end_is_the_mean_over_inputs_of_scaled_medians():
    def rep(run_s, scale):
        return simbench.Rep(setup_s=0.5, run_s=run_s, steps_ms=[1.0] * 50,
                            digest="d", counts={}, scale=scale, setup_scale=scale)

    one = [rep(1.0, 1.0), rep(3.0, 1.0), rep(100.0, 1.0)]   # median 3
    other = [rep(2.0, 0.5), rep(2.0, 0.5)]                   # 2 s at half speed
    metrics = simbench.end_to_end([one, other])
    assert metrics["run_s"] == pytest.approx((3.0 + 1.0) / 2)
    assert metrics["setup_s"] == pytest.approx((0.5 + 0.25) / 2)
    assert metrics["p50_ms"] == pytest.approx((1.0 + 0.5) / 2)
    assert "p90_ms" not in metrics  # 50 steps leave too few beyond the p90


def test_host_speed_scales_by_the_mean_probe_since_a_mark():
    speed = hostspeed.HostSpeed()
    assert speed.probe() > 0
    assert speed.scale_since(speed.mark()) == 1.0  # no probe since
    speed.samples_s = [9.0, 1e-4, 3e-4]
    assert speed.scale_since(1) == pytest.approx(hostspeed.REFERENCE_S / 2e-4)


def test_probes_are_left_out_of_the_step_times(monkeypatch):
    """A rep with probes every few events reports the same work in about
    the same host time as one without, and scales it."""
    monkeypatch.setattr(simbench, "PROBE_EVERY", 5)
    plain = simbench.one_rep(tiny_config(), traced=False)
    speed = hostspeed.HostSpeed()
    probed = simbench.one_rep(tiny_config(), traced=False, speed=speed)
    assert probed.digest == plain.digest
    assert len(probed.steps_ms) == len(plain.steps_ms)
    assert len(speed.samples_s) == 2 * hostspeed.BURST + -(-len(plain.steps_ms) // 5)
    assert sum(probed.steps_ms) / 1000.0 == pytest.approx(probed.run_s, rel=0.05)
    assert probed.run_s < plain.run_s + 0.5 * sum(speed.samples_s)
    assert probed.scale != 1.0 and probed.setup_scale != 1.0


def test_unpinned_seed_checks_reps_against_each_other(monkeypatch):
    monkeypatch.setattr(simbench, "sim_config", lambda name, seed: (tiny_config(seed), None))
    report = simbench.run_sim("fig10-dynamic", 11, seconds=0.01, trace=True)
    assert report["failed"] == 0, report["problems"]
    metrics = report["metrics"]
    assert metrics["phase1.ft_calls"] > 0 and "trace.overhead_s" in metrics


def test_pinned_expectations_cover_every_sim_workload():
    pinned = json.loads(simbench.EXPECTED_PATH.read_text())
    assert set(pinned) == {"metro-1k", "fig10-dynamic"}
    for name, entry in pinned.items():
        assert entry["seed"] == 7
        assert [pin["seed"] for pin in entry["inputs"]] == input_seeds(name, 7)
        for pin in entry["inputs"]:
            assert len(pin["digest"]) == 64
            assert pin["counts"]["phase1.ft_calls"] == 2 * pin["counts"]["phase1.decisions"]
        assert simbench.load_expected(name)[7]["digest"] == entry["inputs"][0]["digest"]


# --------------------------------------------------------- service passes

class FakeClient:
    """Answers like ``ServiceClient``; seeds in ``cached`` are cache hits."""

    def __init__(self, cached=(), broken=()):
        self.cached = set(cached)
        self.broken = set(broken)

    def submit(self, manifest):
        (seed,) = manifest["seeds"]
        if seed in self.broken:
            raise OSError("connection refused")
        return {"id": str(seed)}

    def wait(self, campaign_id, timeout, poll):
        seed = int(campaign_id)
        run = {"status": "done", "config_hash": campaign_id, "from_cache": seed in self.cached}
        return {"status": "done", "runs": [run]}

    def result(self, config_hash):
        return {"result_digest": f"d{config_hash}"}


def test_cache_hit_and_miss_accounting():
    seeds = [1, 2, 3, 4]
    cold = servicebench.run_pass(FakeClient(), seeds)
    assert (cold.hits, cold.misses) == (0, 4)
    assert servicebench.check_pass(cold, False, {}) == []
    assert len(servicebench.check_pass(cold, True, {})) == 4

    hot = servicebench.run_pass(FakeClient(cached=seeds), seeds)
    assert (hot.hits, hot.misses) == (4, 0)
    digests = {s: f"d{s}" for s in seeds}
    assert servicebench.check_pass(hot, True, digests) == []
    digests[2] = "other"
    assert len(servicebench.check_pass(hot, True, digests)) == 1

    mixed = servicebench.run_pass(FakeClient(cached=[1]), seeds)
    assert (mixed.hits, mixed.misses) == (1, 3)
    assert len(servicebench.check_pass(mixed, False, {})) == 1


def test_pass_leaves_its_probes_out():
    speed = hostspeed.HostSpeed()
    p = servicebench.run_pass(FakeClient(), [1, 2, 3], speed)
    assert len(speed.samples_s) == 3
    assert p.scale == pytest.approx(speed.scale_since(0))
    assert p.wall_s < sum(speed.samples_s)  # the fake client answers at once


def test_refused_request_is_failed_not_fatal():
    p = servicebench.run_pass(FakeClient(broken=[2]), [1, 2, 3])
    problems = servicebench.check_pass(p, False, {})
    assert len(problems) == 1 and "refused" in problems[0]
    assert (p.hits, p.misses) == (0, 2)


def test_live_service_hot_run(monkeypatch):
    monkeypatch.setattr(servicebench, "SERVER_STARTS", 1)
    report = servicebench.run_service("service-hot", 2, seconds=0.01, trace=True)
    assert report["failed"] == 0, report["problems"]
    # priming pass + measured passes + the local re-simulation + 1 server
    assert report["attempted"] >= 1 + PASS_SIZE + stats.samples_needed(TAIL_Q) + 1
    metrics = report["metrics"]
    assert metrics["campaign.cache_hits"] == PASS_SIZE
    assert metrics["campaign.cache_misses"] == 0
    assert metrics["service.handler_ms.results"] > 0
    assert not servicebench.SCRATCH.exists() or not any(servicebench.SCRATCH.iterdir())


def test_handler_ms_counts_only_requests_between_scrapes():
    before = "\n".join([
        'repro_http_request_seconds_count{route="/campaigns"} 10',
        'repro_http_request_seconds_sum{route="/campaigns"} 9.0',
    ])
    after = "\n".join([
        'repro_http_request_seconds_count{route="/campaigns"} 14',
        'repro_http_request_seconds_sum{route="/campaigns"} 9.02',
        'repro_http_request_seconds_count{route="/results/{hash}"} 2',
        'repro_http_request_seconds_sum{route="/results/{hash}"} 0.001',
    ])
    out = servicebench.handler_ms(before, after)
    assert out["service.handler_ms.campaigns"] == pytest.approx(5.0)
    assert out["service.handler_ms.results"] == pytest.approx(0.5)
    assert out["service.handler_ms.campaign"] == 0.0


# ---------------------------------------------------------------- output

def test_finish_requires_every_declared_metric():
    units = {"run_s": "s", "p90_ms": "ms"}
    ok = finish({"attempted": 3, "failed": 0, "problems": [], "metrics": {"run_s": 1.0, "p90_ms": 2.0}}, units)
    assert ok["correct"] is True
    assert ok["metrics"]["p90_ms"] == {"value": 2.0, "unit": "ms"}
    short = finish({"attempted": 3, "failed": 0, "problems": [], "metrics": {"run_s": 1.0}}, units)
    assert short["correct"] is False
    assert any("p90_ms" in p for p in short["problems"])
