"""The harness's eta and zeta means checked against exact expectations.

Every full 3x3 category is one of 6^6 = 46,656 equally likely preference
profiles, so patient-proposing deferred acceptance has exact expected eta
and zeta per category, found by enumerating them all. run_experiment's
per-row means at a fixed seed must lie within 3 standard errors of them.

The same walk checks tomhecs from both proposing sides on every profile:
it is the oracle's sequential deferred acceptance, it is stable, and its
proposal counts have their exact mean and the worst case n^2 - n + 1
(Gale & Shapley 1962; Knuth 1976).

A second walk covers every 2x2, 2x3 and 3x2 category whose lists are any
ordered subsets of the opposite roster, the empty list included: the
markets where an unlisted counterpart's rank, the row width, decides
whether a receiver accepts.
"""

import random
from fractions import Fraction
from itertools import permutations, product
from math import sqrt
from statistics import fmean, stdev

import pytest

from medmatch import DOCTOR, PATIENT, category_from_rankings, eta_zeta
from medmatch.harness import ExperimentConfig, run_experiment
from medmatch.market import SIDES
from medmatch.mechanisms import ramhecs_category, tomhecs_category
from medmatch.oracle import _blocking_ordinals, _gale_shapley

# Per category, under patient-proposing deferred acceptance: (E[eta], E[zeta]).
EXACT = {
    PATIENT: (Fraction(11, 8), Fraction(23, 12)),
    DOCTOR: (Fraction(155, 72), Fraction(35, 24)),
}
# Per category, from either proposing side: (E[proposals], most proposals).
# By symmetry the two sides agree; n*H_n = 11/2 bounds the mean (Wilson 1972).
PROPOSALS = (Fraction(35, 8), 3 * 3 - 3 + 1)


def test_exact_expectations_on_every_full_3x3_category():
    totals = {side: [0, 0] for side in EXACT}
    proposals = {side: [] for side in (PATIENT, DOCTOR)}
    count = 0
    for lists in product(permutations(range(3)), repeat=6):
        cm = category_from_rankings(0, lists[:3], lists[3:])
        for proposing_side, counts in proposals.items():
            partners, trace = tomhecs_category(cm, proposing_side)
            assert partners == _gale_shapley(cm, proposing_side), (lists, proposing_side)
            assert not any(_blocking_ordinals(cm, partners)), (lists, proposing_side)
            counts.append(trace.proposals)
            if proposing_side == PATIENT:
                for side, total in totals.items():
                    eta, zeta = eta_zeta(cm, partners, side)
                    total[0] += eta
                    total[1] += zeta
        count += 1
    assert count == 46_656
    assert {side: (Fraction(eta, count), Fraction(zeta, count))
            for side, (eta, zeta) in totals.items()} == EXACT
    assert {side: (Fraction(sum(counts), count), max(counts))
            for side, counts in proposals.items()} == {PATIENT: PROPOSALS, DOCTOR: PROPOSALS}


def test_harness_means_lie_within_three_standard_errors_of_the_exact_values():
    config = ExperimentConfig(
        k=10, n_patients=3, n_doctors=3, mechanisms=("tomhecs",), presets=("none",),
        measured_sides=(PATIENT, DOCTOR), repetitions=400, seed=22,
    )
    rows = run_experiment(config).rows
    for side, exact in EXACT.items():
        side_rows = [row for row in rows if row.measured_side == side]
        assert len(side_rows) == 400 * 10
        for name, expected in zip(("eta", "zeta"), exact):
            values = [getattr(row, name) for row in side_rows]
            mean = fmean(values)
            std_error = stdev(values) / sqrt(len(values))
            assert abs(mean - expected) <= 3 * std_error, (side, name, mean, std_error)


def ordered_subsets(width):
    """Every list over width counterparts: each ordered subset, empty first."""
    return [row for size in range(width + 1) for row in permutations(range(width), size)]


@pytest.mark.parametrize("n, m, count", [(2, 2, 625), (2, 3, 32_000), (3, 2, 32_000)])
def test_every_partial_category_of_small_rosters(n, m, count):
    rng = random.Random(f"partial:{n}x{m}")
    walked = 0
    for lists in product(*[ordered_subsets(m)] * n, *[ordered_subsets(n)] * m):
        cm = category_from_rankings(0, lists[:n], lists[n:])
        by_side = []
        for proposing_side in SIDES:
            partners, _ = tomhecs_category(cm, proposing_side)
            assert partners == _gale_shapley(cm, proposing_side), (lists, proposing_side)
            assert not any(_blocking_ordinals(cm, partners)), (lists, proposing_side)
            by_side.append(partners)
        # Every stable matching leaves the same agents unmatched (Roth 1986).
        unmatched = [{side: [r is None for r in p[side]] for side in SIDES} for p in by_side]
        assert unmatched[0] == unmatched[1], lists
        # Random pairing joins only mutually listed pairs, and is maximal:
        # no mutually listed pair is left both unmatched.
        partners, trace = ramhecs_category(cm, rng)
        patient, doctor = partners[PATIENT], partners[DOCTOR]
        assert all(
            p in cm.doctor_prefs[d] for p, d in enumerate(patient) if d is not None
        ), lists
        assert not any(
            patient[p] is None and doctor[d] is None and p in cm.doctor_prefs[d]
            for p, row in enumerate(cm.patient_prefs)
            for d in row
        ), lists
        assert trace.proposals == n - patient.count(None), lists
        walked += 1
    assert walked == count
