"""Contact-level DTN simulation substrate.

The packet-level simulator (:mod:`repro.network`) models every frame and
collision; this package models the network at *contact* granularity —
when two nodes are within range, messages transfer instantaneously up to
the contact's capacity, with an ideal (contention-free) MAC.  This is
the abstraction level of the authors' earlier DFT-MSN analysis [5]
(direct transmission vs flooding via queuing models, and the FAD
scheme), and it is fast enough for very large parameter sweeps.

Uses: upper-bound comparisons (how much does MAC contention cost?),
policy prototyping, and cross-validation of the packet-level stack
(orderings of protocols must agree between the two simulators).  The
concrete policies live with their protocols in :mod:`repro.protocols`.
"""

from repro.contact.detector import ContactTracer, Contact
from repro.contact.policies import ContactPolicy
from repro.contact.simulator import ContactSimulation, ContactSimConfig

__all__ = [
    "ContactTracer",
    "Contact",
    "ContactPolicy",
    "ContactSimulation",
    "ContactSimConfig",
]
