"""The built-in protocol zoo.

Importing :mod:`repro.protocols` imports this module, which registers
every built-in descriptor in presentation order — the order harness
tables, CLI defaults and docs show them in.  Worker processes re-import
the package, so the zoo is identical across serial and parallel
backends.
"""

from __future__ import annotations

from repro.core.params import ProtocolParameters
from repro.core.protocol import CrossLayerAgent
from repro.protocols.descriptor import ProtocolDescriptor
from repro.protocols.direct import DirectAgent, DirectPolicy
from repro.protocols.epidemic import EpidemicAgent, EpidemicPolicy
from repro.protocols.fad import FadPolicy
from repro.protocols.meeting_rate import MeetingRateAgent, MeetingRatePolicy
from repro.protocols.registry import register
from repro.protocols.spray import SprayAndWaitPolicy
from repro.protocols.two_hop import TwoHopAgent, TwoHopPolicy
from repro.protocols.zbr import ZbrAgent, ZbrHistoryPolicy

register(ProtocolDescriptor(
    name="opt",
    agent_class=CrossLayerAgent,
    policy_class=None,
    params=ProtocolParameters.opt(),
    queue_discipline="ftd",
    contact_pairing="fad",
    tags=("fig2", "fault-campaign"),
    description="The paper's cross-layer protocol, all Sec. 4 "
                "optimizations enabled",
    citation="Wang, Wu, Li & Tian, ICDCS 2007 (the source paper)",
))

register(ProtocolDescriptor(
    name="nosleep",
    agent_class=CrossLayerAgent,
    policy_class=None,
    params=ProtocolParameters.nosleep(),
    queue_discipline="ftd",
    tags=("fig2",),
    description="OPT with radios always on (energy/delivery reference)",
    citation="Wang, Wu, Li & Tian, ICDCS 2007 (the source paper)",
))

register(ProtocolDescriptor(
    name="noopt",
    agent_class=CrossLayerAgent,
    policy_class=None,
    params=ProtocolParameters.noopt(),
    queue_discipline="ftd",
    tags=("fig2",),
    description="The basic Sec. 3 protocol with fixed MAC parameters",
    citation="Wang, Wu, Li & Tian, ICDCS 2007 (the source paper)",
))

register(ProtocolDescriptor(
    name="fad",
    agent_class=None,
    policy_class=FadPolicy,
    params=ProtocolParameters.opt(),
    queue_discipline="ftd",
    description="Contact-level fault-tolerance-based forwarding "
                "(Eq. 1-3 without a MAC); the crossval counterpart of "
                "the opt preset",
    citation="Wang, Wu, Li & Tian, ICDCS 2007 (the source paper)",
))

register(ProtocolDescriptor(
    name="zbr",
    agent_class=ZbrAgent,
    policy_class=ZbrHistoryPolicy,
    params=ProtocolParameters.opt(),
    queue_discipline="fifo",
    contact_pairing="zbr",
    tags=("fig2",),
    description="ZebraNet history-based single-copy custody transfer",
    citation="Juang et al., ASPLOS 2002 (ZebraNet)",
))

register(ProtocolDescriptor(
    name="epidemic",
    agent_class=EpidemicAgent,
    policy_class=EpidemicPolicy,
    params=ProtocolParameters.opt(),
    queue_discipline="fifo",
    tags=("fault-campaign",),
    description="Flood every contact with buffer room (maximal "
                "redundancy extreme)",
    citation="Vahdat & Becker, Duke TR CS-2000-06",
))

register(ProtocolDescriptor(
    name="direct",
    agent_class=DirectAgent,
    policy_class=DirectPolicy,
    params=ProtocolParameters.opt(),
    queue_discipline="fifo",
    contact_pairing="direct",
    tags=("fault-campaign",),
    description="Source holds its data until it meets a sink (minimal "
                "overhead extreme)",
    citation="Wang & Wu, earlier DFT-MSN analysis [5]",
))

register(ProtocolDescriptor(
    name="spray",
    agent_class=None,
    policy_class=SprayAndWaitPolicy,
    params=ProtocolParameters.opt(),
    queue_discipline="fifo",
    description="Binary Spray-and-Wait: halve the copy budget at each "
                "contact, then wait for a sink",
    citation="Spyropoulos, Psounis & Raghavendra, WDTN 2005",
))

register(ProtocolDescriptor(
    name="two_hop",
    agent_class=TwoHopAgent,
    policy_class=TwoHopPolicy,
    params=ProtocolParameters.opt(),
    queue_discipline="fifo",
    contact_pairing="two_hop",
    description="Two-hop relay: the source sprays up to "
                "two_hop_copy_limit relays, relays wait for a sink",
    citation="Altman, Basar & De Pellegrini, arXiv:0911.3241",
))

register(ProtocolDescriptor(
    name="meeting_rate",
    agent_class=MeetingRateAgent,
    policy_class=MeetingRatePolicy,
    params=ProtocolParameters.opt(),
    queue_discipline="fifo",
    contact_pairing="meeting_rate",
    description="Single-copy custody toward higher estimated "
                "sink-meeting rates (MLE over elapsed time)",
    citation="Shaghaghian & Coates, arXiv:1506.04729",
))
