"""Contact-plan parser: grammar, strict error paths, round trips."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contact.simulator import ContactSimConfig, run_contact_simulation
from repro.scenario.plan import (
    ContactPlan,
    ContactPlanError,
    PlannedContact,
    load_contact_plan,
    parse_contact_plan,
    resolve_plan,
)

VALID = """\
# three nodes, three windows
a contact +0 +30 0 1 10000
a contact +10 +40 1 2 10000   # trailing comment

a contact 50 60 2 0 250.5
"""


class TestParsing:
    def test_valid_plan(self):
        plan = parse_contact_plan(VALID)
        assert len(plan.contacts) == 3
        assert plan.node_ids == [0, 1, 2]
        assert plan.horizon == 60.0

    def test_contacts_sorted_and_normalized(self):
        plan = parse_contact_plan(VALID)
        starts = [c.start for c in plan.contacts]
        assert starts == sorted(starts)
        # "2 0" is stored endpoint-normalized with a < b.
        last = plan.contacts[-1]
        assert (last.a, last.b) == (0, 2)

    def test_plus_prefix_optional(self):
        a = parse_contact_plan("a contact +5 +9 0 1 100\n")
        b = parse_contact_plan("a contact 5 9 0 1 100\n")
        assert a.contacts == b.contacts

    def test_zero_duration_window_allowed(self):
        plan = parse_contact_plan("a contact 5 5 0 1 100\n")
        assert plan.contacts[0].duration == 0.0

    def test_rate_preserved(self):
        plan = parse_contact_plan("a contact 0 10 3 7 2400\n")
        assert plan.contacts[0].rate_bps == 2400.0

    def test_active_at_half_open(self):
        plan = parse_contact_plan("a contact 10 20 0 1 100\n")
        assert plan.active_at(10.0)
        assert plan.active_at(19.999)
        assert not plan.active_at(20.0)
        assert not plan.active_at(9.999)


class TestErrorPaths:
    @pytest.mark.parametrize("line,fragment", [
        ("b contact 0 10 0 1 100", "unknown directive"),
        ("a range 0 10 0 1 100", "unsupported command"),
        ("a contact 0 10 0 1", "7 tokens"),
        ("a contact 0 10 0 1 100 extra", "7 tokens"),
        ("a contact zero 10 0 1 100", "bad time"),
        ("a contact -5 10 0 1 100", "negative time"),
        ("a contact 10 5 0 1 100", "ends before it starts"),
        ("a contact 0 10 x 1 100", "bad node id"),
        ("a contact 0 10 -1 1 100", "negative node id"),
        ("a contact 0 10 4 4 100", "to itself"),
        ("a contact 0 10 0 1 fast", "bad rate"),
        ("a contact 0 10 0 1 0", "rate must be positive"),
        ("a contact 0 10 0 1 -100", "rate must be positive"),
        ("a contact +nan +10 1 2 10000", "non-finite time"),
        ("a contact 0 +inf 1 2 10000", "non-finite time"),
        ("a contact 0 1e999 1 2 10000", "non-finite time"),
        ("a contact 0 10 1 2 inf", "rate must be positive and finite"),
        ("a contact 0 10 1 2 nan", "rate must be positive and finite"),
    ])
    def test_malformed_lines(self, line, fragment):
        with pytest.raises(ContactPlanError, match=fragment):
            parse_contact_plan(f"# header\n{line}\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ContactPlanError) as err:
            parse_contact_plan("a contact 0 10 0 1 100\nbogus line here\n")
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_empty_plan_rejected(self):
        with pytest.raises(ContactPlanError, match="no contacts"):
            parse_contact_plan("# only comments\n\n")

    def test_overlapping_same_pair_rejected(self):
        text = ("a contact 0 20 0 1 100\n"
                "a contact 10 30 1 0 100\n")  # reversed endpoints, same pair
        with pytest.raises(ContactPlanError, match="overlaps"):
            parse_contact_plan(text)

    def test_touching_windows_allowed(self):
        text = ("a contact 0 20 0 1 100\n"
                "a contact 20 30 0 1 100\n")
        assert len(parse_contact_plan(text).contacts) == 2

    def test_unknown_node_ids(self):
        plan = parse_contact_plan("a contact 0 10 0 9 100\n")
        with pytest.raises(ContactPlanError, match=r"\[9\]"):
            plan.require_nodes([0, 1, 2])
        plan.require_nodes(range(10))  # no raise

    @pytest.mark.parametrize("rate", ["inf", "nan"])
    def test_replay_never_sees_a_non_finite_rate(self, tmp_path, rate):
        # Accepted, these rates crashed the exchange: ZeroDivisionError
        # for inf, a NaN-to-integer conversion for nan.
        path = tmp_path / "plan.txt"
        path.write_text(f"a contact 0 10 0 1 {rate}\n")
        with pytest.raises(ContactPlanError, match="line 1"):
            run_contact_simulation(ContactSimConfig(
                policy="direct", duration_s=50.0, n_sensors=1, n_sinks=1,
                plan_path=str(path)))


#: Numeric tokens a hand-written plan may contain, the odd ones included.
_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(min_value=-3, max_value=10 ** 6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "Infinity", "1e999", "-0",
                     "1e-320", "1_000"]),
)
_TIME = st.one_of(_NUMBER, _NUMBER.map(lambda token: "+" + token))
_NODE = st.integers(min_value=0, max_value=4).map(str)
_LINE = st.builds("a contact {} {} {} {} {}".format,
                  _TIME, _TIME, _NODE, _NODE, _NUMBER)


class TestParserProperty:
    @given(lines=st.lists(_LINE, min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_accepted_plans_are_finite_and_ordered(self, lines):
        try:
            plan = parse_contact_plan("\n".join(lines))
        except ContactPlanError:
            return  # rejecting is always allowed
        for c in plan.contacts:
            assert math.isfinite(c.start) and math.isfinite(c.end)
            assert 0.0 <= c.start <= c.end
            assert math.isfinite(c.rate_bps) and c.rate_bps > 0
            assert c.a < c.b


class TestRoundTrips:
    def test_text_round_trip(self):
        plan = parse_contact_plan(VALID)
        again = parse_contact_plan(plan.to_text())
        assert again.contacts == plan.contacts

    def test_dict_round_trip(self):
        plan = parse_contact_plan(VALID)
        again = ContactPlan.from_dict(plan.to_dict())
        assert again.contacts == plan.contacts

    def test_planned_contact_dict_round_trip(self):
        c = PlannedContact(a=1, b=2, start=3.5, end=7.25, rate_bps=9600.0)
        assert PlannedContact.from_dict(c.to_dict()) == c


class TestLoadAndResolve:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text(VALID)
        plan = load_contact_plan(path)
        assert len(plan.contacts) == 3

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ContactPlanError, match="cannot read"):
            load_contact_plan(tmp_path / "nope.txt")

    def test_load_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a contact 10 5 0 1 100\n")
        with pytest.raises(ContactPlanError, match="bad.txt"):
            load_contact_plan(path)

    def test_resolve_prefers_path(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("a contact 0 10 0 1 100\n")

        class FakeSpec:
            plan = "a contact 0 99 0 1 100\n"

        plan = resolve_plan(str(path), FakeSpec())
        assert plan.horizon == 10.0

    def test_resolve_falls_back_to_scenario(self):
        class FakeSpec:
            plan = "a contact 0 99 0 1 100\n"

        assert resolve_plan(None, FakeSpec()).horizon == 99.0

    def test_resolve_without_any_source(self):
        with pytest.raises(ContactPlanError, match="no contact plan"):
            resolve_plan(None, None)
