"""Protocol descriptors: one record per protocol, spanning both levels.

A :class:`ProtocolDescriptor` is the single place where a protocol's
identity is spelled out — which :class:`~repro.core.protocol.MacAgent`
runs it at the packet level, which
:class:`~repro.contact.policies.ContactPolicy` runs it at the contact
level, the default :class:`~repro.core.params.ProtocolParameters`
preset, the queue discipline, and the explicit cross-level pairing the
crossval study uses.  Protocol tables, queue disciplines, CLI defaults
and the crossval pairing are all derived from these records via
:mod:`repro.protocols.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple, Type

from repro.core.params import ProtocolParameters

if TYPE_CHECKING:  # runtime imports would cycle through repro.contact
    from repro.contact.policies import ContactPolicy
    from repro.core.protocol import MacAgent

#: Queue disciplines a descriptor may declare.  ``"ftd"`` keeps the
#: paper's FTD-threshold dropping; ``"fifo"`` disables it (threshold
#: 1.0), the right choice for baselines with no fault-tolerance notion.
QUEUE_DISCIPLINES: Tuple[str, ...] = ("ftd", "fifo")


@dataclass(frozen=True)
class ProtocolDescriptor:
    """Everything the simulators and harness know about one protocol.

    Attributes:

    * ``name`` — the registry key (CLI ``--protocol`` / ``--policies``
      spelling).
    * ``agent_class`` — packet-level MAC agent, or ``None`` for a
      contact-only protocol (e.g. ``fad``, ``spray``).
    * ``policy_class`` — contact-level policy, or ``None`` for a
      packet-only protocol (e.g. the ``opt``/``noopt``/``nosleep``
      presets, whose differences are MAC/sleep optimizations the ideal
      contact level cannot express).
    * ``params`` — default parameter preset for packet-level runs.
    * ``queue_discipline`` — ``"ftd"`` or ``"fifo"``.
    * ``contact_pairing`` — name of the contact-level protocol the
      crossval study matches this packet-level protocol against, or
      ``None`` to keep it out of the crossval table.
    * ``tags`` — harness membership markers: ``"fig2"`` puts the
      protocol into the Fig. 2 reproduction set, ``"fault-campaign"``
      into the default fault-campaign roster.
    * ``description`` / ``citation`` — one-liner and source paper for
      the zoo table in docs/PROTOCOLS.md.
    """

    name: str
    agent_class: Optional[Type["MacAgent"]]
    policy_class: Optional[Type["ContactPolicy"]]
    params: ProtocolParameters
    queue_discipline: str = "ftd"
    contact_pairing: Optional[str] = None
    tags: Tuple[str, ...] = ()
    description: str = ""
    citation: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ValueError(f"protocol name must be a non-empty "
                             f"identifier, got {self.name!r}")
        if self.name != self.name.lower():
            raise ValueError(f"protocol name must be lowercase, "
                             f"got {self.name!r}")
        if self.agent_class is None and self.policy_class is None:
            raise ValueError(
                f"protocol {self.name!r} needs an agent class, a policy "
                f"class, or both")
        if self.queue_discipline not in QUEUE_DISCIPLINES:
            raise ValueError(
                f"unknown queue discipline {self.queue_discipline!r}; "
                f"choose from {sorted(QUEUE_DISCIPLINES)}")
        if self.contact_pairing is not None and self.agent_class is None:
            raise ValueError(
                f"protocol {self.name!r} declares a contact pairing but "
                f"no packet-level agent")
        if not isinstance(self.tags, tuple):
            raise ValueError(f"tags must be a tuple, got {self.tags!r}")

    @property
    def packet_capable(self) -> bool:
        """Whether this protocol runs on the packet-level simulator."""
        return self.agent_class is not None

    @property
    def contact_capable(self) -> bool:
        """Whether this protocol runs on the contact-level simulator."""
        return self.policy_class is not None

    def queue_drop_threshold(self) -> float:
        """The FTD drop threshold implied by the queue discipline."""
        if self.queue_discipline == "fifo":
            return 1.0
        return self.params.ftd_drop_threshold
