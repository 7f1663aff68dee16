"""Analytic DTN delivery models (direct transmission vs flooding).

The authors' earlier work [5] compares direct transmission and flooding
in DFT-MSN with queuing models; this module provides the standard
Markov-chain machinery for that comparison under exponential
inter-contact times (the classic Groenevelt-style model):

* **Direct transmission** — the source must meet a sink itself:
  delivery time is exponential with the source-sink contact rate.
* **Epidemic (flooding)** — the number of carriers grows as new nodes
  are infected at rate ``i * (N - i) * lambda``, and any of the ``i``
  carriers delivers at rate ``i * m * lambda_sink``; delivery time is a
  phase-type distribution whose moments solve a linear system.

``pair_contact_rate`` estimates the exponential contact rate lambda
from a simulated contact trace, linking the analysis to the mobility
substrate.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # typing only: the kernel imports this pure-math leaf
    from repro.contact.detector import Contact


# ----------------------------------------------------------------------
# contact-rate estimation
# ----------------------------------------------------------------------
def pair_contact_rate(contacts: Sequence[Contact], n_nodes: int,
                      duration_s: float) -> float:
    """Estimated per-pair contact rate lambda (contacts/second/pair).

    Under the exponential-meeting assumption, the count of contacts per
    pair over the horizon is Poisson(lambda * duration).
    """
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    pairs = n_nodes * (n_nodes - 1) / 2
    return len(contacts) / pairs / duration_s


def node_contact_rate(contacts: Sequence[Contact], node_id: int,
                      duration_s: float) -> float:
    """Contact rate of one node with anyone (contacts/second)."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    count = sum(1 for c in contacts if c.involves(node_id))
    return count / duration_s


# ----------------------------------------------------------------------
# direct transmission
# ----------------------------------------------------------------------
def direct_delivery_cdf(t: float, sink_rate: float) -> float:
    """P(direct delivery by time t) = 1 - exp(-lambda_s * t)."""
    if sink_rate < 0 or t < 0:
        raise ValueError("rate and time must be nonnegative")
    return 1.0 - math.exp(-sink_rate * t)


def direct_expected_delay(sink_rate: float) -> float:
    """E[T] = 1 / lambda_s for direct transmission."""
    if sink_rate <= 0:
        raise ValueError("sink contact rate must be positive")
    return 1.0 / sink_rate


# ----------------------------------------------------------------------
# epidemic flooding (Markov model)
# ----------------------------------------------------------------------
def _epidemic_generator(n_relays: int, pair_rate: float, n_sinks: int,
                        sink_rate: float) -> Tuple[np.ndarray, np.ndarray]:
    """Transition rates of the carrier-count chain.

    State ``i`` (1..N) = number of carriers.  Infection ``i -> i+1`` at
    ``i * (N - i) * pair_rate``; absorption (delivery) at
    ``i * n_sinks * sink_rate``.
    Returns (infection_rates, absorption_rates) indexed by ``i - 1``.
    """
    if n_relays < 1:
        raise ValueError("need at least the source itself")
    if pair_rate < 0 or sink_rate < 0 or n_sinks < 0:
        raise ValueError("rates cannot be negative")
    infection = np.array([i * (n_relays - i) * pair_rate
                          for i in range(1, n_relays + 1)], dtype=float)
    absorption = np.array([i * n_sinks * sink_rate
                           for i in range(1, n_relays + 1)], dtype=float)
    return infection, absorption


def epidemic_expected_delay(n_relays: int, pair_rate: float,
                            n_sinks: int, sink_rate: float) -> float:
    """Expected delivery delay of flooding (phase-type mean).

    Solves the first-step equations
    ``E_i = (1 + inf_i * E_{i+1} / ...)`` exactly via back-substitution:
    ``E_i = (1 + inf_i * E_{i+1}) / (inf_i + abs_i)`` with
    ``E_N = 1 / abs_N``.
    """
    infection, absorption = _epidemic_generator(n_relays, pair_rate,
                                                n_sinks, sink_rate)
    if absorption[-1] <= 0:
        raise ValueError("absorbing rate must be positive somewhere")
    expected = np.zeros(n_relays)
    expected[-1] = 1.0 / absorption[-1]
    for i in range(n_relays - 2, -1, -1):
        total = infection[i] + absorption[i]
        if total <= 0:
            raise ValueError(f"state {i + 1} is a trap")
        expected[i] = (1.0 + infection[i] * expected[i + 1]) / total
    return float(expected[0])


def epidemic_delivery_cdf(t: float, n_relays: int, pair_rate: float,
                          n_sinks: int, sink_rate: float,
                          steps: int = 2000) -> float:
    """P(flooding delivery by time t), via forward integration of the
    carrier-count master equation (explicit Euler, ``steps`` slices)."""
    if t < 0:
        raise ValueError("time cannot be negative")
    if t == 0:
        return 0.0
    infection, absorption = _epidemic_generator(n_relays, pair_rate,
                                                n_sinks, sink_rate)
    p = np.zeros(n_relays)
    p[0] = 1.0
    delivered = 0.0
    dt = t / steps
    for _ in range(steps):
        out_inf = p * infection
        out_abs = p * absorption
        delivered += out_abs.sum() * dt
        p = p - (out_inf + out_abs) * dt
        p[1:] += out_inf[:-1] * dt
        np.clip(p, 0.0, None, out=p)
    return float(min(1.0, delivered))


def two_hop_expected_delay(n_relays: int, pair_rate: float,
                           n_sinks: int, sink_rate: float) -> float:
    """Two-hop relay (source sprays to relays; relays go direct).

    Same chain as epidemic but only the *source* infects: infection rate
    from state i is ``(N - i) * pair_rate`` (the source meets fresh
    relays), absorption ``i * n_sinks * sink_rate``.
    """
    if n_relays < 1:
        raise ValueError("need at least the source itself")
    infection = np.array([(n_relays - i) * pair_rate
                          for i in range(1, n_relays + 1)], dtype=float)
    absorption = np.array([i * n_sinks * sink_rate
                           for i in range(1, n_relays + 1)], dtype=float)
    if absorption[-1] <= 0:
        raise ValueError("absorbing rate must be positive somewhere")
    expected = np.zeros(n_relays)
    expected[-1] = 1.0 / absorption[-1]
    for i in range(n_relays - 2, -1, -1):
        total = infection[i] + absorption[i]
        expected[i] = (1.0 + infection[i] * expected[i + 1]) / total
    return float(expected[0])
