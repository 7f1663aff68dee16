"""Protocol registry and zoo — the single source of truth for protocol
dispatch across both simulators (see docs/PROTOCOLS.md).

Each protocol lives in one module that holds both its packet-level
agent and its contact-level policy (``zbr.py``, ``direct.py``, ...);
importing this package registers the built-in zoo
(:mod:`repro.protocols.builtin`).  The paper's own cross-layer agent
stays in :mod:`repro.core.protocol`.
"""

import repro.protocols.builtin  # registers the zoo
from repro.protocols.descriptor import ProtocolDescriptor, QUEUE_DISCIPLINES
from repro.protocols.direct import DirectAgent, DirectPolicy
from repro.protocols.epidemic import EpidemicAgent, EpidemicPolicy
from repro.protocols.fad import FadPolicy
from repro.protocols.meeting_rate import (
    MeetingRateAgent,
    MeetingRatePolicy,
    SinkMeetingRateEstimator,
)
from repro.protocols.registry import (
    PROTOCOLS,
    contact_policy_names,
    crossval_pairs,
    get_protocol,
    names_tagged,
    packet_protocol_names,
    protocol_names,
    register,
    unregister,
)
from repro.protocols.spray import SprayAndWaitPolicy
from repro.protocols.two_hop import TwoHopAgent, TwoHopPolicy
from repro.protocols.zbr import ZbrAgent, ZbrHistoryPolicy

__all__ = [
    "DirectAgent",
    "DirectPolicy",
    "EpidemicAgent",
    "EpidemicPolicy",
    "FadPolicy",
    "MeetingRateAgent",
    "MeetingRatePolicy",
    "PROTOCOLS",
    "ProtocolDescriptor",
    "QUEUE_DISCIPLINES",
    "SinkMeetingRateEstimator",
    "SprayAndWaitPolicy",
    "TwoHopAgent",
    "TwoHopPolicy",
    "ZbrAgent",
    "ZbrHistoryPolicy",
    "contact_policy_names",
    "crossval_pairs",
    "get_protocol",
    "names_tagged",
    "packet_protocol_names",
    "protocol_names",
    "register",
    "unregister",
]
