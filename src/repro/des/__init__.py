"""Discrete-event simulation engine.

A minimal, dependency-free event-driven kernel: a monotonically ordered
event heap (:class:`~repro.des.scheduler.EventScheduler`), cancellable
events (:class:`~repro.des.event.Event`) and reproducible named random
streams (:class:`~repro.des.rng.RandomStreams`).

SimPy is not available in this environment; this package provides the
equivalent functionality needed by the DFT-MSN simulator.
"""

from repro.des.event import Event
from repro.des.scheduler import EventScheduler
from repro.des.rng import RandomStreams

__all__ = ["Event", "EventScheduler", "RandomStreams"]
