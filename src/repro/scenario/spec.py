"""Serializable scenario descriptions.

A :class:`ScenarioSpec` bundles a topology, a mobility regime (synthetic
zone-grid motion or an inline contact plan), and a traffic mix into one
plain-data value that rides inside ``SimulationConfig`` /
``ContactSimConfig``.  Specs are frozen and JSON-round-trippable so a
scenario travels losslessly through the runner/checkpoint stack; the
named presets live in :mod:`repro.scenario.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.codec import PlainData

__all__ = ["ScenarioSpec"]


@dataclass(frozen=True)
class ScenarioSpec(PlainData):
    """One named deployment scenario (topology + mobility + traffic)."""

    name: str
    description: str = ""
    #: ``"zone"`` runs the synthetic zone-grid mobility over the fields
    #: below; ``"plan"`` replays the inline contact plan (required).
    mobility: str = "zone"
    n_sensors: int = 100
    n_sinks: int = 3
    area_m: float = 150.0
    zones_per_side: int = 5
    comm_range_m: float = 10.0
    speed_min_mps: float = 0.0
    speed_max_mps: float = 5.0
    exit_probability: float = 0.2
    mean_arrival_s: float = 120.0
    duration_s: float = 25_000.0
    #: Inline contact-plan text (the ``a contact`` grammar of
    #: docs/SCENARIOS.md); required when ``mobility == "plan"``.
    plan: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        if self.mobility not in ("zone", "plan"):
            raise ValueError(f"unknown scenario mobility {self.mobility!r}; "
                             f"choose 'zone' or 'plan'")
        if self.mobility == "plan" and self.plan is None:
            raise ValueError("mobility='plan' needs inline plan text")
        if self.n_sensors < 1 or self.n_sinks < 1:
            raise ValueError("need at least one sensor and one sink")
        if self.area_m <= 0 or self.comm_range_m <= 0:
            raise ValueError("geometry must be positive")
        if self.zones_per_side < 1:
            raise ValueError("zones_per_side must be at least 1")
        if self.speed_min_mps < 0 or self.speed_max_mps < self.speed_min_mps:
            raise ValueError("invalid speed range: need "
                             "0 <= speed_min_mps <= speed_max_mps")
        if not 0.0 <= self.exit_probability <= 1.0:
            raise ValueError("exit_probability must be in [0, 1]")
        if self.mean_arrival_s <= 0:
            raise ValueError("mean arrival interval must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
