"""Analytic benches: regenerate the Sec. 4 design tables (Eq. 10-14).

These are the numbers a protocol implementer would tabulate when picking
tau_max and W; they are pure closed forms, so the bench also doubles as
a micro-benchmark of the optimizer searches.
"""

from repro.analysis import (
    cts_collision_probability,
    min_contention_window,
    min_tau_max,
    rts_collision_probability,
    sigma_slots,
)
from repro.checks.tolerance import tolerant_le


def test_tau_max_search_table(benchmark):
    """Eq. 13: min tau_max vs cell size, at the default 0.1 target."""
    cells = {m: [0.5] * m for m in range(2, 9)}

    def build():
        return {m: min_tau_max(xis, 0.1, 512) for m, xis in cells.items()}

    table = benchmark(build)
    print()
    print("Eq. 13 — min tau_max (slots) for gamma <= 0.1, uniform xi=0.5")
    print("  m:    " + "  ".join(f"{m:>4}" for m in table))
    print("  tau:  " + "  ".join(f"{t:>4}" for t in table.values()))
    # Monotone: more contenders need a longer listen window.
    taus = list(table.values())
    assert all(a <= b for a, b in zip(taus, taus[1:]))
    # And each result actually meets the target, by the search's own
    # round-off-tolerant test: at m = 2, tau = 19 the sigmas are [10, 10]
    # and gamma is 1/10 on paper but 0.1 + 9e-17 in floats.
    for m, tau in table.items():
        sigmas = [sigma_slots(0.5, tau)] * m
        assert tolerant_le(rts_collision_probability(sigmas), 0.1)


def test_contention_window_search_table(benchmark):
    """Eq. 14: min W vs responder count at several targets."""
    def build():
        return {
            target: [min_contention_window(n, target, 4096)
                     for n in range(2, 8)]
            for target in (0.2, 0.1, 0.05)
        }

    table = benchmark(build)
    print()
    print("Eq. 14 — min W for gamma_o <= target (responders 2..7)")
    for target, row in table.items():
        print(f"  target {target:>4}: {row}")
    # Tighter targets need wider windows, monotonically.
    for loose, tight in ((0.2, 0.1), (0.1, 0.05)):
        assert all(a <= b for a, b in zip(table[loose], table[tight]))
    for target, row in table.items():
        for n, w in zip(range(2, 8), row):
            assert cts_collision_probability(n, w) <= target


def test_grasp_probability_skew(benchmark):
    """Eq. 10: verify and time the xi-skew effect at a fixed tau_max."""
    xis = [0.1, 0.3, 0.5, 0.7, 0.9]
    tau = 40

    def build():
        sigmas = [sigma_slots(x, tau) for x in xis]
        from repro.analysis import grasp_probabilities
        return grasp_probabilities(sigmas)

    probs = benchmark(build)
    print()
    print("Eq. 10 — channel-grab probability by xi (tau_max = 40)")
    for xi, p in zip(xis, probs):
        print(f"  xi={xi:.1f}: P_grab={p:.3f}")
    # The design goal: strictly decreasing grab probability in xi.
    assert all(a > b for a, b in zip(probs, probs[1:]))
