"""The protocol registry: single source of truth for protocol dispatch.

Consumers never spell protocol names in literal tables (lint rule
REG001 enforces this); they ask the registry:

* :func:`get_protocol` — descriptor lookup with a helpful error;
* :func:`protocol_names` / :func:`packet_protocol_names` /
  :func:`contact_policy_names` — name lists in registration order;
* :func:`names_tagged` — harness membership (``"fig2"``,
  ``"fault-campaign"``);
* :func:`crossval_pairs` — the packet-to-contact pairing table;
* :data:`PROTOCOLS` — the live ``name -> (agent class, preset)`` view
  behind the ``repro.PROTOCOLS`` / ``repro.api.PROTOCOLS`` facade name.

The built-in zoo registers itself when :mod:`repro.protocols` is
imported (see :mod:`repro.protocols.builtin`); :func:`register` is also
the extension point for out-of-tree protocols.  Worker processes
re-import the package, so built-in protocols survive
``ProcessPoolRunner`` dispatch; protocols registered at runtime only
exist in the registering process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Tuple, Type

from repro.core.params import ProtocolParameters
from repro.protocols.descriptor import ProtocolDescriptor

if TYPE_CHECKING:  # typing only: the registry stays import-light
    from repro.core.protocol import MacAgent

_REGISTRY: Dict[str, ProtocolDescriptor] = {}


def register(descriptor: ProtocolDescriptor) -> ProtocolDescriptor:
    """Add a descriptor to the registry; the name must be unused.

    Returns the descriptor so registrations can double as assignments.
    """
    if descriptor.name in _REGISTRY:
        raise ValueError(
            f"protocol {descriptor.name!r} is already registered")
    _REGISTRY[descriptor.name] = descriptor
    return descriptor


def unregister(name: str) -> None:
    """Remove a registered protocol (test / plugin teardown)."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown protocol {name!r}; "
                         f"choose from {sorted(_REGISTRY)}")
    del _REGISTRY[name]


def get_protocol(name: str) -> ProtocolDescriptor:
    """Look up a descriptor by name, listing the zoo on a miss."""
    descriptor = _REGISTRY.get(name)
    if descriptor is None:
        raise ValueError(f"unknown protocol {name!r}; "
                         f"choose from {sorted(_REGISTRY)}")
    return descriptor


def protocol_names() -> Tuple[str, ...]:
    """All registered names, in registration order."""
    return tuple(_REGISTRY)


def packet_protocol_names() -> Tuple[str, ...]:
    """Names runnable on the packet-level simulator."""
    return tuple(name for name, d in _REGISTRY.items() if d.packet_capable)


def contact_policy_names() -> Tuple[str, ...]:
    """Names runnable on the contact-level simulator."""
    return tuple(name for name, d in _REGISTRY.items() if d.contact_capable)


def names_tagged(tag: str) -> Tuple[str, ...]:
    """Names carrying ``tag``, in registration order."""
    return tuple(name for name, d in _REGISTRY.items() if tag in d.tags)


def crossval_pairs() -> Dict[str, str]:
    """The packet-protocol -> contact-policy pairing for crossval.

    Derived from each packet-capable descriptor's ``contact_pairing``;
    a pairing that names an unregistered or contact-incapable protocol
    is a registration bug and fails loudly here.
    """
    pairs: Dict[str, str] = {}
    for name, descriptor in _REGISTRY.items():
        pairing = descriptor.contact_pairing
        if pairing is None:
            continue
        target = _REGISTRY.get(pairing)
        if target is None or not target.contact_capable:
            raise ValueError(
                f"protocol {name!r} pairs with {pairing!r}, which is not "
                f"a registered contact-level protocol")
        pairs[name] = pairing
    return pairs


class _PacketProtocolTable(
        Mapping[str, Tuple[Type["MacAgent"], ProtocolParameters]]):
    """Live ``name -> (agent class, preset)`` view of the registry.

    Contact-only protocols are not visible through it.
    """

    def __getitem__(
            self, name: str) -> Tuple[Type["MacAgent"], ProtocolParameters]:
        descriptor = _REGISTRY.get(name)
        if descriptor is None or descriptor.agent_class is None:
            raise KeyError(name)
        return descriptor.agent_class, descriptor.params

    def __iter__(self) -> Iterator[str]:
        return iter(packet_protocol_names())

    def __len__(self) -> int:
        return len(packet_protocol_names())

    def __repr__(self) -> str:
        return f"PROTOCOLS({', '.join(packet_protocol_names())})"


#: Protocol name -> (agent class, default parameter preset), live.
PROTOCOLS: Mapping[str, Tuple[Type["MacAgent"], ProtocolParameters]] = (
    _PacketProtocolTable())

