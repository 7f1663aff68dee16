"""ION-style contact-plan parsing and validation.

A contact plan is a plain-text schedule of pairwise communication
windows, one directive per line::

    a contact <start> <end> <from> <to> <rate_bps>

Times are relative seconds (an optional leading ``+`` is accepted, as in
ION ``ionrc`` files), node ids are non-negative integers, and the rate
is the usable link bandwidth in bits per second.  Blank lines and ``#``
comments (full-line or trailing) are ignored.  Parsing is strict: every
malformed line raises :class:`ContactPlanError` carrying the offending
line number and text, and overlapping windows for the same node pair are
rejected (touching windows — one ending exactly when the next starts —
are fine).

The parsed :class:`ContactPlan` drives two consumers (docs/SCENARIOS.md):

* :class:`~repro.scenario.mobility.ContactPlanMobility` positions nodes
  so the geometric detectors realize exactly the planned contacts;
* the contact-level simulator's replay mode feeds the windows straight
  into the policy exchange loop, bypassing geometry entirely.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.codec import PlainData, from_plain

__all__ = [
    "ContactPlan",
    "ContactPlanError",
    "PlannedContact",
    "load_contact_plan",
    "parse_contact_plan",
    "resolve_plan",
]


class ContactPlanError(ValueError):
    """A contact plan failed to parse or validate.

    ``line`` (1-based) and ``text`` locate the offending directive when
    the failure is attributable to a single line.
    """

    def __init__(self, message: str, line: Optional[int] = None,
                 text: Optional[str] = None) -> None:
        self.line = line
        self.text = text
        if line is not None:
            message = f"line {line}: {message}"
            if text is not None:
                message = f"{message}\n    {text}"
        super().__init__(message)


@dataclass(frozen=True)
class PlannedContact(PlainData):
    """One scheduled communication window between two nodes.

    Endpoints are stored normalized (``a < b``); the window is treated as
    half-open ``[start, end)`` by the mobility realizer and inclusive by
    the replay exchange (matching the geometric detector, which emits the
    contact at the first scan where the pair is out of range).
    """

    a: int
    b: int
    start: float
    end: float
    rate_bps: float

    @property
    def duration(self) -> float:
        """Seconds the window stays open (0 for degenerate windows)."""
        return self.end - self.start


@dataclass(frozen=True)
class ContactPlan(PlainData):
    """A validated, sorted schedule of planned contacts."""

    contacts: Tuple[PlannedContact, ...]

    @property
    def node_ids(self) -> List[int]:
        """Sorted ids of every node that appears in the plan."""
        ids = {c.a for c in self.contacts} | {c.b for c in self.contacts}
        return sorted(ids)

    @property
    def horizon(self) -> float:
        """Latest scheduled end time (0.0 for an empty plan)."""
        return max((c.end for c in self.contacts), default=0.0)

    def active_at(self, now: float) -> List[PlannedContact]:
        """Contacts whose half-open window ``[start, end)`` covers ``now``."""
        return [c for c in self.contacts if c.start <= now < c.end]

    def require_nodes(self, universe: Iterable[int]) -> None:
        """Raise unless every planned node id is in ``universe``."""
        unknown = sorted(set(self.node_ids) - set(universe))
        if unknown:
            raise ContactPlanError(
                f"plan references node ids not in the simulation: {unknown}")

    def to_text(self) -> str:
        """Render back to the ``a contact`` line grammar (re-parseable)."""
        lines = [f"a contact +{c.start:g} +{c.end:g} {c.a} {c.b} "
                 f"{c.rate_bps:g}" for c in self.contacts]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ContactPlan":
        """Rebuild from :meth:`to_dict` output (re-validated)."""
        return _build_plan(list(from_plain(cls, data).contacts), lines=None)


def _parse_time(token: str, line_no: int, text: str) -> float:
    """Parse a relative time, accepting ION's leading ``+``."""
    raw = token[1:] if token.startswith("+") else token
    try:
        value = float(raw)
    except ValueError:
        raise ContactPlanError(f"bad time {token!r} (want seconds)",
                               line_no, text) from None
    if not math.isfinite(value):
        raise ContactPlanError(f"non-finite time {token!r}", line_no, text)
    if value < 0:
        raise ContactPlanError(f"negative time {token!r}", line_no, text)
    return value


def _parse_node(token: str, line_no: int, text: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ContactPlanError(f"bad node id {token!r} (want an integer)",
                               line_no, text) from None
    if value < 0:
        raise ContactPlanError(f"negative node id {token!r}", line_no, text)
    return value


def _build_plan(contacts: List[PlannedContact],
                lines: Optional[List[int]]) -> ContactPlan:
    """Sort, check same-pair overlap, and freeze into a ContactPlan.

    ``lines`` carries the 1-based source line of each contact (parallel
    to ``contacts``) so overlap errors can cite both directives; plans
    rebuilt from dicts pass ``None``.
    """
    order = sorted(range(len(contacts)),
                   key=lambda i: (contacts[i].start, contacts[i].end,
                                  contacts[i].a, contacts[i].b))
    last_by_pair: Dict[Tuple[int, int], Tuple[PlannedContact, Optional[int]]] = {}
    for i in order:
        contact = contacts[i]
        line_no = lines[i] if lines is not None else None
        pair = (contact.a, contact.b)
        previous = last_by_pair.get(pair)
        if previous is not None and contact.start < previous[0].end:
            prev_where = (f" (line {previous[1]})"
                          if previous[1] is not None else "")
            raise ContactPlanError(
                f"contact {contact.a}-{contact.b} "
                f"[{contact.start:g}, {contact.end:g}] overlaps "
                f"[{previous[0].start:g}, {previous[0].end:g}]{prev_where}",
                line_no)
        last_by_pair[pair] = (contact, line_no)
    return ContactPlan(contacts=tuple(contacts[i] for i in order))


def parse_contact_plan(text: str) -> ContactPlan:
    """Parse contact-plan text into a validated :class:`ContactPlan`.

    Raises :class:`ContactPlanError` (with the line number) on any
    malformed directive, and on plans that define no contacts at all.
    """
    contacts: List[PlannedContact] = []
    lines: List[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] != "a":
            raise ContactPlanError(
                f"unknown directive {tokens[0]!r} (only 'a contact' lines "
                f"are supported)", line_no, raw.rstrip())
        if len(tokens) < 2 or tokens[1] != "contact":
            what = tokens[1] if len(tokens) > 1 else "<missing>"
            raise ContactPlanError(
                f"unsupported command 'a {what}' (only 'a contact' lines "
                f"are supported)", line_no, raw.rstrip())
        if len(tokens) != 7:
            raise ContactPlanError(
                f"expected 'a contact <start> <end> <from> <to> <rate>' "
                f"(7 tokens), got {len(tokens)}", line_no, raw.rstrip())
        start = _parse_time(tokens[2], line_no, raw.rstrip())
        end = _parse_time(tokens[3], line_no, raw.rstrip())
        if end < start:
            raise ContactPlanError(
                f"contact ends before it starts ({end:g} < {start:g})",
                line_no, raw.rstrip())
        node_from = _parse_node(tokens[4], line_no, raw.rstrip())
        node_to = _parse_node(tokens[5], line_no, raw.rstrip())
        if node_from == node_to:
            raise ContactPlanError(
                f"contact from node {node_from} to itself", line_no,
                raw.rstrip())
        try:
            rate = float(tokens[6])
        except ValueError:
            raise ContactPlanError(
                f"bad rate {tokens[6]!r} (want bits per second)",
                line_no, raw.rstrip()) from None
        if not (math.isfinite(rate) and rate > 0):
            raise ContactPlanError(
                f"rate must be positive and finite, got {rate:g}", line_no,
                raw.rstrip())
        a, b = sorted((node_from, node_to))
        contacts.append(PlannedContact(a=a, b=b, start=start, end=end,
                                       rate_bps=rate))
        lines.append(line_no)
    if not contacts:
        raise ContactPlanError("plan defines no contacts")
    return _build_plan(contacts, lines)


def load_contact_plan(path: Union[str, pathlib.Path]) -> ContactPlan:
    """Read and parse a contact-plan file."""
    plan_path = pathlib.Path(path)
    try:
        text = plan_path.read_text()
    except OSError as exc:
        raise ContactPlanError(f"cannot read contact plan "
                               f"{str(plan_path)!r}: {exc}") from exc
    try:
        return parse_contact_plan(text)
    except ContactPlanError as exc:
        raise ContactPlanError(f"{plan_path}: {exc}") from None


def resolve_plan(plan_path: Optional[str],
                 scenario: Optional[object] = None) -> ContactPlan:
    """The plan a config designates: an explicit file wins, then the
    scenario's inline plan text.

    ``scenario`` is duck-typed (anything with a ``plan`` text attribute,
    normally a :class:`~repro.scenario.spec.ScenarioSpec`) to keep this
    module import-light.
    """
    if plan_path is not None:
        return load_contact_plan(plan_path)
    inline = getattr(scenario, "plan", None)
    if inline is not None:
        return parse_contact_plan(inline)
    raise ContactPlanError(
        "no contact plan: set plan_path or use a scenario with an "
        "inline plan")
