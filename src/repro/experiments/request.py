"""The request pipeline: every campaign and sweep is resolved and run here.

A request is a *manifest*, one JSON-shaped dict, over a base config.
There are two kinds, keyed as the service's request bodies are::

    campaign  {"scenario", "algorithms", "seeds", "overrides"}
    sweep     {"scenarios", "algorithms", "seeds", "overrides",
               "threshold", "resolution", "max_scale"}

:func:`resolve` validates a manifest and applies one resolution order:
the base, then the scenario preset, then the overrides, then the
algorithm × seed grid.  Every rejection raises :class:`ManifestError`,
with a stable ``code`` and the offending ``field``.  :func:`execute` runs
the result: a campaign through
:class:`~repro.experiments.campaign.CampaignRunner`, a sweep through
:func:`~repro.experiments.sweep.run_sweep`.

Each door only translates its input into these two calls:

* ``repro campaign`` / ``repro sweep`` build a manifest from their flags
  over ``base_config(--profile)`` (default ``small``);
* :mod:`repro.api` passes its arguments over the caller's base, or the
  paper-scale ``ExperimentConfig()`` defaults;
* ``repro serve`` resolves over ``ExperimentConfig()`` and adds its size
  caps (:mod:`repro.service.schemas`).

``repro serve`` imports this module at start-up, so its imports stay lazy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.campaign import CampaignRun, RunSpec
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.journal import RunJournal

__all__ = [
    "CAMPAIGN_KEYS",
    "SWEEP_KEYS",
    "ManifestError",
    "Request",
    "execute",
    "resolve",
    "sweep_base",
]

#: The top-level keys of a campaign manifest.
CAMPAIGN_KEYS = frozenset({"scenario", "algorithms", "seeds", "overrides"})
#: The top-level keys of a sweep manifest: plural ``scenarios`` plus the
#: search criterion.
SWEEP_KEYS = frozenset(
    {"scenarios", "algorithms", "seeds", "overrides",
     "threshold", "resolution", "max_scale"}
)
#: Override keys that are grid axes or provenance, never free-form overrides.
RESERVED_OVERRIDES = ("algorithm", "seed", "scenario")


class ManifestError(ValueError):
    """A request manifest failed validation (HTTP 4xx, structured body).

    ``code`` is a stable machine-readable slug; ``field`` names the
    offending manifest key (``None`` when the body as a whole is bad).
    """

    def __init__(self, code: str, message: str, field: Optional[str] = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.field = field

    def to_dict(self) -> dict:
        error = {"code": self.code, "message": self.message}
        if self.field is not None:
            error["field"] = self.field
        return {"error": error}


@dataclass(frozen=True)
class Request:
    """A resolved manifest: what :func:`execute` runs.

    ``specs`` are the resolved configs: a campaign's grid cells in order,
    or a sweep's per-scenario bases (labelled by scenario; the sweep picks
    its probes as it runs).  ``keys`` holds each spec's config hash, and
    ``sweep`` the arguments of :func:`~repro.experiments.sweep.run_sweep`.
    """

    kind: str
    specs: "tuple[RunSpec, ...]"
    keys: "tuple[str, ...]"
    sweep: Optional[dict] = None

    @property
    def identity(self) -> str:
        """The content hash a run journal stores to recognise this request."""
        from repro.experiments.journal import request_identity

        cells = [[spec.label, key] for spec, key in zip(self.specs, self.keys)]
        if self.kind == "campaign":
            return request_identity("campaign", cells)
        criterion = {k: self.sweep[k] for k in ("algorithms", "seeds", "threshold",
                                                "resolution", "max_scale")}
        return request_identity("sweep", {"bases": cells, **criterion})


# --------------------------------------------------------------------------
# Resolve
# --------------------------------------------------------------------------

def resolve(
    kind: str,
    manifest: Mapping,
    base: "Optional[ExperimentConfig]" = None,
    limits: Optional[Mapping[str, int]] = None,
) -> Request:
    """Validate a ``campaign`` or ``sweep`` manifest and resolve it.

    ``base`` defaults to the paper-scale ``ExperimentConfig()``.
    ``limits`` caps the length of the ``algorithms``, ``seeds`` and
    ``scenarios`` lists (the service's admission caps; none by default).
    Every rejection raises :class:`ManifestError`.
    """
    if kind not in ("campaign", "sweep"):
        raise ValueError(f"unknown request kind {kind!r}")
    if not isinstance(manifest, Mapping):
        raise ManifestError(
            "malformed-manifest",
            f"manifest must be a JSON object, got {type(manifest).__name__}",
        )
    allowed = CAMPAIGN_KEYS if kind == "campaign" else SWEEP_KEYS
    unknown = sorted(str(key) for key in set(manifest) - allowed)
    if unknown:
        what = "manifest" if kind == "campaign" else "sweep manifest"
        raise ManifestError(
            "unknown-field",
            f"unknown {what} field(s): {', '.join(unknown)}; "
            f"expected a subset of {{{', '.join(sorted(allowed))}}}",
            field=unknown[0],
        )
    if base is None:
        base = _default_base()
    limits = limits or {}
    if kind == "campaign":
        return _campaign(manifest, base, limits)
    return _sweep(manifest, base, limits)


def _campaign(manifest: Mapping, base: "ExperimentConfig", limits: Mapping) -> Request:
    from repro.experiments.campaign import sweep_specs

    algorithms = _algorithms(manifest.get("algorithms", ["dsmf"]), limits)
    seeds = _seeds(manifest.get("seeds", [1]), limits)
    scenario = manifest.get("scenario")
    if scenario is not None:
        _known_scenarios([scenario], "scenario")
    overrides = _overrides(manifest.get("overrides", {}))
    config = _scenario_config(base, scenario, overrides)
    try:
        specs = sweep_specs(algorithms, seeds, base=config)
    except (TypeError, ValueError) as exc:  # e.g. duplicate grid cells
        raise ManifestError("invalid-manifest", str(exc)) from None
    return _hashed("campaign", specs)


def _sweep(manifest: Mapping, base: "ExperimentConfig", limits: Mapping) -> Request:
    from repro.experiments.campaign import RunSpec
    from repro.experiments.sweep import DEFAULT_ALGORITHMS, SweepSettings

    scenarios = manifest.get("scenarios")
    if not _list_of(scenarios, str):
        raise ManifestError(
            "invalid-scenarios",
            "scenarios must be a non-empty list of scenario names",
            field="scenarios",
        )
    _cap(scenarios, "scenarios", limits)
    if len(set(scenarios)) != len(scenarios):
        raise ManifestError(
            "invalid-scenarios", "duplicate scenario in sweep request",
            field="scenarios",
        )
    _known_scenarios(scenarios, "scenarios")
    algorithms = manifest.get("algorithms")
    algorithms = _algorithms(
        list(DEFAULT_ALGORITHMS) if algorithms is None else algorithms, limits
    )
    if len(set(algorithms)) != len(algorithms):
        raise ManifestError(
            "invalid-algorithms", "duplicate algorithm in sweep request",
            field="algorithms",
        )
    seeds = _seeds(manifest.get("seeds", [1]), limits)
    overrides = _overrides(manifest.get("overrides", {}))
    criterion = {}
    for key, default in (("threshold", 0.95), ("resolution", 0.25), ("max_scale", 8.0)):
        value = manifest.get(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ManifestError("invalid-criterion", f"{key} must be a number", field=key)
        try:
            criterion[key] = float(value)
        except OverflowError:
            raise ManifestError(
                "invalid-criterion", f"{key} must be a finite number", field=key
            ) from None
    settings = SweepSettings(seeds=tuple(seeds), **criterion)
    bases = [RunSpec(name, sweep_base(name, base, overrides)) for name in scenarios]
    return _hashed("sweep", bases, {
        "scenarios": scenarios,
        "algorithms": algorithms,
        "seeds": seeds,
        "overrides": overrides,
        **criterion,
        "base": base,
        "settings": settings,
    })


def _scenario_config(
    base: "ExperimentConfig", scenario: Optional[str], overrides: Mapping
) -> "ExperimentConfig":
    """The one resolution order: ``base``, then ``scenario``, then ``overrides``.

    A config that rejects the result raises :class:`ManifestError`
    (``invalid-overrides``), chained to the config's own error.
    """
    try:
        if scenario is None:
            return base.with_(**overrides) if overrides else base
        from repro.workload.scenarios import apply_scenario

        return apply_scenario(base, scenario, **overrides)
    except (TypeError, ValueError) as exc:
        # Unknown field names and type-incompatible values both surface as
        # TypeError from the frozen dataclass or its validation comparisons.
        raise ManifestError(
            "invalid-overrides", f"bad config override: {exc}", field="overrides"
        ) from exc


def sweep_base(
    scenario: str, base: "Optional[ExperimentConfig]", overrides: Mapping
) -> "ExperimentConfig":
    """One sweep scenario's config, before the probe's algorithm, seed and
    scale; a trace-replay scenario cannot be swept."""
    from repro.experiments.sweep import SweepError

    if base is None:
        base = _default_base()
    config = _scenario_config(base, scenario, overrides)
    if config.workload_source == "trace":
        raise SweepError(
            "unsweepable-scenario",
            f"scenario {scenario!r} replays a submission trace; its arrival "
            "rate is fixed by the trace file, so workload_scale cannot "
            "sweep it — pick a generated-workload scenario",
            field="scenarios",
        )
    return config


@cache
def _default_base() -> "ExperimentConfig":
    """The paper-scale ``ExperimentConfig()``: built once per process and
    shared, since a config is frozen."""
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig()


def _hashed(kind: str, specs: "Sequence[RunSpec]", sweep: Optional[dict] = None) -> Request:
    """Key every resolved config; a config that cannot be hashed is refused."""
    from repro.experiments.campaign import config_hash

    try:
        keys = tuple(config_hash(spec.config) for spec in specs)
    except (TypeError, ValueError, RecursionError) as exc:
        raise ManifestError(
            "invalid-overrides", f"bad config override: {exc}", field="overrides"
        ) from exc
    return Request(kind, tuple(specs), keys, sweep)


def _list_of(value, kind) -> bool:
    return (
        isinstance(value, list)
        and bool(value)
        and all(isinstance(v, kind) and not isinstance(v, bool) for v in value)
    )


def _cap(values: list, key: str, limits: Mapping) -> None:
    limit = limits.get(key)
    if limit is not None and len(values) > limit:
        raise ManifestError(
            f"too-many-{key}",
            f"oversized {key} list: {len(values)} {key} exceed the limit of {limit}",
            field=key,
        )


def _algorithms(algorithms, limits: Mapping) -> list:
    if not _list_of(algorithms, str):
        raise ManifestError(
            "invalid-algorithms",
            "algorithms must be a non-empty list of strings",
            field="algorithms",
        )
    _cap(algorithms, "algorithms", limits)
    from repro.core.heuristics.registry import algorithm_names

    known = algorithm_names()
    for name in algorithms:
        if name not in known:
            raise ManifestError(
                "unknown-algorithm",
                f"unknown algorithm {name!r}; available: {', '.join(known)}",
                field="algorithms",
            )
    return algorithms


def _seeds(seeds, limits: Mapping) -> list:
    if not _list_of(seeds, int):
        raise ManifestError(
            "invalid-seeds", "seeds must be a non-empty list of integers", field="seeds"
        )
    _cap(seeds, "seeds", limits)
    if any(s < 0 for s in seeds):
        raise ManifestError("invalid-seeds", "seeds must be non-negative", field="seeds")
    return seeds


def _known_scenarios(names: list, field: str) -> None:
    from repro.workload.scenarios import scenario_names

    known = scenario_names()
    for name in names:
        if not isinstance(name, str) or name not in known:
            raise ManifestError(
                "unknown-scenario",
                f"unknown scenario {name!r}; available: {', '.join(known)}",
                field=field,
            )


def _overrides(overrides) -> dict:
    if not isinstance(overrides, dict) or not all(isinstance(k, str) for k in overrides):
        raise ManifestError(
            "invalid-overrides",
            "overrides must be an object mapping config field names to values",
            field="overrides",
        )
    for key in RESERVED_OVERRIDES:
        if key in overrides:
            raise ManifestError(
                "invalid-overrides",
                f"override {key!r} is reserved; use the matching top-level "
                "manifest field instead",
                field="overrides",
            )
    return overrides


# --------------------------------------------------------------------------
# Execute
# --------------------------------------------------------------------------

def execute(
    request: Request,
    *,
    progress: "Optional[Callable[[CampaignRun], None]]" = None,
    on_start: Optional[Callable] = None,
    probe_progress: Optional[Callable] = None,
    journal: "Optional[RunJournal]" = None,
    expected: Optional[Mapping[str, str]] = None,
    **options,
):
    """Run a resolved request; returns its ``CampaignResult`` or, for a
    sweep, the capacity-envelope report.

    ``options`` go to :class:`~repro.experiments.campaign.CampaignRunner`
    (``jobs``, ``cache_dir``, ``use_cache``, ``runner``, ``mp_context``,
    ``max_retries``, ``retry_backoff``, ``faults``, ``stats``).
    ``progress(run)`` sees every finished cell and ``on_start(spec, key)``
    every cell handed to a worker; a sweep also reports each probe to
    ``probe_progress(scenario, algorithm, probe)``.  ``journal`` records
    each finished cell's result digest and, once the request succeeds, its
    fingerprint.  ``expected`` maps config hashes to the digests an earlier
    run recorded: a cell whose digest differs is not journaled, and fails
    the request with :class:`~repro.experiments.campaign.CampaignError`
    once every cell has run.
    """
    from repro.experiments.campaign import CampaignError, CampaignRunner

    mismatched: list[tuple[str, str]] = []

    def on_done(run: "CampaignRun") -> None:
        if journal is not None or expected:
            digest = run.digest()
            recorded = (expected or {}).get(run.cache_key, digest)
            if recorded != digest:
                mismatched.append((
                    run.label,
                    f"result digest {digest[:12]} diverged from the recorded {recorded[:12]}",
                ))
            elif journal is not None:
                journal.record_done(run.cache_key, run.label, digest)
        if progress is not None:
            progress(run)

    if request.kind == "sweep":
        from repro.experiments.sweep import run_sweep

        args = request.sweep
        outcome = run_sweep(
            args["scenarios"], args["algorithms"], base=args["base"],
            settings=args["settings"], progress=probe_progress,
            run_progress=on_done, run_on_start=on_start,
            **options, **args["overrides"],
        )
    else:
        runner = CampaignRunner(progress=on_done, on_start=on_start, **options)
        outcome = runner.run(request.specs, keys=request.keys)
    if mismatched:
        raise CampaignError(mismatched)
    if journal is not None:
        from repro.experiments.journal import request_identity

        journal.finish(
            request_identity("sweep-report", outcome)
            if request.kind == "sweep"
            else outcome.fingerprint()
        )
    return outcome
