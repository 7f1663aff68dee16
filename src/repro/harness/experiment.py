"""Replicated runs and parameter sweeps.

The paper averages each data point over multiple simulation runs
(Sec. 5); :func:`run_replicated` does the same with per-replicate seeds,
and :func:`sweep` maps a config-editing function over a parameter axis.

Both accept a :class:`~repro.harness.runner.Runner` (serial by default,
:class:`~repro.harness.runner.ProcessPoolRunner` for parallel execution)
and an optional :class:`~repro.harness.serialize.Checkpoint`; a sweep
dispatches *all* of its replicate runs as one batch, so a parallel
backend overlaps work across axis points, and results are aggregated in
a deterministic order regardless of completion order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.codec import from_plain, to_plain
from repro.harness.runner import Job, Runner, RunFailure, SerialRunner
from repro.harness.serialize import Checkpoint
from repro.metrics.stats import mean_confidence_interval, summarize
from repro.network.config import SimulationConfig
from repro.network.simulation import SimulationResult


def derive_seed(base_seed: int, config_seed: int, rep: int) -> int:
    """Per-replicate seed from a stable hash of all three inputs.

    The historical linear rule (``base_seed + 1000 * rep + config.seed``)
    collided across sweep points and replicates (``config.seed=1001,
    rep=0`` equals ``config.seed=1, rep=1``), silently correlating runs
    that must be independent.  Hashing makes every ``(base_seed,
    config_seed, rep)`` triple its own seed, identically in every
    process and interpreter run (unlike builtin ``hash``, which is
    salted per process).
    """
    digest = hashlib.sha256(
        f"{base_seed}:{config_seed}:{rep}".encode("utf-8")).digest()
    # 63-bit positive seed: collision-free in practice, JSON-safe.
    return int.from_bytes(digest[:8], "big") % (2 ** 63 - 1) + 1


def replicate_configs(
    config: SimulationConfig,
    replicates: int,
    base_seed: int = 1,
) -> List[SimulationConfig]:
    """The per-replicate configs (derived seeds) for one data point."""
    if replicates < 1:
        raise ValueError("need at least one replicate")
    return [config.with_seed(derive_seed(base_seed, config.seed, rep))
            for rep in range(replicates)]


@dataclass
class AggregateResult:
    """Mean metrics over the replicates of one configuration.

    ``failures`` holds the replicates that crashed instead of producing
    a result (see :class:`~repro.harness.runner.RunFailure`); statistics
    are computed over the successful replicates only.
    """

    config: SimulationConfig
    replicates: List[SimulationResult]
    failures: List[RunFailure] = field(default_factory=list)

    @property
    def n(self) -> int:
        """Number of replicates aggregated."""
        return len(self.replicates)

    def _values(self, attr: str) -> List[float]:
        values = []
        for r in self.replicates:
            v = getattr(r, attr)
            if v is not None:
                values.append(float(v))
        return values

    def mean(self, attr: str) -> float:
        """Mean of one result attribute over replicates (NaN if absent)."""
        values = self._values(attr)
        if not values:
            return float("nan")
        return sum(values) / len(values)

    def ci(self, attr: str) -> tuple:
        """(mean, 95% half-width) of one result attribute."""
        return mean_confidence_interval(self._values(attr))

    @property
    def delivery_ratio(self) -> float:
        """Mean delivery ratio over replicates."""
        return self.mean("delivery_ratio")

    @property
    def average_delay_s(self) -> float:
        """Mean delivery delay over replicates."""
        return self.mean("average_delay_s")

    @property
    def average_power_mw(self) -> float:
        """Mean nodal power over replicates."""
        return self.mean("average_power_mw")

    def mean_overhead(self) -> float:
        """Mean transmissions-per-delivered-message over replicates."""
        values = [r.transmissions_per_delivery() for r in self.replicates]
        values = [v for v in values if v is not None]
        if not values:
            return float("nan")
        return sum(values) / len(values)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-metric summary statistics over replicates."""
        return {
            attr: summarize(self._values(attr))
            for attr in ("delivery_ratio", "average_delay_s",
                         "average_power_mw", "average_hops")
        }

    def to_dict(self) -> Dict[str, object]:
        """Lossless plain-data view (config + every replicate result)."""
        return {
            "config": self.config.to_dict(),
            "replicates": [to_plain(r) for r in self.replicates],
            "failures": [
                {"error_type": f.error_type, "error": f.error,
                 "traceback": f.traceback,
                 "config": f.job.config.to_dict()}
                for f in self.failures
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AggregateResult":
        """Rebuild an aggregate from :meth:`to_dict` output.

        Failures round-trip as structured records (the original
        exception object is gone, so they are rebuilt as
        :class:`RunFailure` entries around the failing config).
        """
        failures = []
        for f in data.get("failures", []):  # type: ignore[union-attr]
            cfg = SimulationConfig.from_dict(f["config"])
            failures.append(RunFailure(
                job=Job("packet", cfg), error_type=f["error_type"],
                error=f["error"], traceback=f["traceback"]))
        return cls(
            config=SimulationConfig.from_dict(data["config"]),  # type: ignore[arg-type]
            replicates=[from_plain(SimulationResult, r)
                        for r in data["replicates"]],  # type: ignore[union-attr]
            failures=failures,
        )


def _aggregate(config: SimulationConfig,
               outcomes: Sequence[object]) -> AggregateResult:
    """Split runner outcomes into successes and structured failures."""
    results = [o for o in outcomes if isinstance(o, SimulationResult)]
    failures = [o for o in outcomes if isinstance(o, RunFailure)]
    return AggregateResult(config=config, replicates=results,
                           failures=failures)


def run_replicated(
    config: SimulationConfig,
    replicates: int = 3,
    base_seed: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    runner: Optional[Runner] = None,
    checkpoint: Optional[Checkpoint] = None,
) -> AggregateResult:
    """Run ``config`` with ``replicates`` distinct seeds and aggregate."""
    configs = replicate_configs(config, replicates, base_seed)
    if runner is None:
        runner = SerialRunner()
    outcomes = runner.run_jobs([Job("packet", cfg) for cfg in configs],
                               progress=progress, checkpoint=checkpoint)
    return _aggregate(config, outcomes)


def sweep(
    base: SimulationConfig,
    axis_name: str,
    axis_values: Sequence[object],
    edit: Callable[[SimulationConfig, object], SimulationConfig],
    replicates: int = 3,
    base_seed: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    runner: Optional[Runner] = None,
    checkpoint: Optional[Checkpoint] = None,
) -> Dict[object, AggregateResult]:
    """Run ``base`` across an axis (e.g. number of sinks), aggregated.

    ``edit(config, value)`` produces the per-point configuration; the
    common case is ``lambda c, v: replace(c, n_sinks=v)``.  All
    ``len(axis_values) * replicates`` runs are dispatched as one batch,
    so a parallel runner keeps its workers busy across the whole sweep.
    """
    if runner is None:
        runner = SerialRunner()
    points: List[Tuple[object, SimulationConfig]] = []
    for value in axis_values:
        if progress is not None:
            progress(f"{axis_name} = {value}")
        points.append((value, edit(base, value)))

    jobs: List[Job] = []
    for _value, cfg in points:
        jobs.extend(Job("packet", c)
                    for c in replicate_configs(cfg, replicates, base_seed))
    outcomes = runner.run_jobs(jobs, progress=progress,
                               checkpoint=checkpoint)

    out: Dict[object, AggregateResult] = {}
    for i, (value, cfg) in enumerate(points):
        chunk = outcomes[i * replicates:(i + 1) * replicates]
        out[value] = _aggregate(cfg, chunk)
    return out


def vary_sinks(config: SimulationConfig, n_sinks: object) -> SimulationConfig:
    """Axis editor: set the number of sinks."""
    return replace(config, n_sinks=int(n_sinks))  # type: ignore[call-arg]


def vary_sensors(config: SimulationConfig, n_sensors: object) -> SimulationConfig:
    """Axis editor: set the number of sensors."""
    return replace(config, n_sensors=int(n_sensors))  # type: ignore[call-arg]


def vary_speed(config: SimulationConfig, vmax: object) -> SimulationConfig:
    """Axis editor: set the maximum nodal speed."""
    return replace(config, speed_max_mps=float(vmax))  # type: ignore[call-arg]
