"""The harness's eta and zeta means checked against exact expectations.

Every full 3x3 category is one of 6^6 = 46,656 equally likely preference
profiles, so patient-proposing deferred acceptance has exact expected eta
and zeta per category, found by enumerating them all. run_experiment's
per-row means at a fixed seed must lie within 3 standard errors of them.
"""

from fractions import Fraction
from itertools import permutations, product
from math import sqrt
from statistics import fmean, stdev

from medmatch import DOCTOR, PATIENT, category_from_rankings, eta_zeta
from medmatch.harness import ExperimentConfig, run_experiment
from medmatch.mechanisms import tomhecs_category

# Per category, under patient-proposing deferred acceptance: (E[eta], E[zeta]).
EXACT = {
    PATIENT: (Fraction(11, 8), Fraction(23, 12)),
    DOCTOR: (Fraction(155, 72), Fraction(35, 24)),
}


def test_exact_expectations_on_every_full_3x3_category():
    totals = {side: [0, 0] for side in EXACT}
    count = 0
    for lists in product(permutations(range(3)), repeat=6):
        cm = category_from_rankings(0, lists[:3], lists[3:])
        partners, _ = tomhecs_category(cm, PATIENT)
        for side, total in totals.items():
            eta, zeta = eta_zeta(cm, partners, side)
            total[0] += eta
            total[1] += zeta
        count += 1
    assert count == 46_656
    assert {side: (Fraction(eta, count), Fraction(zeta, count))
            for side, (eta, zeta) in totals.items()} == EXACT


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
