import math
from itertools import permutations, product

import pytest

from medmatch import (
    estimate_first_pick_distance,
    estimate_total_distance,
    generate_random_market,
    perturb_preferences,
    simulate_geometric_rejections,
    validate_market,
)
from medmatch.market import DOCTOR, PATIENT, PRESET_PROBABILITIES


def test_preset_ladder():
    assert PRESET_PROBABILITIES == {
        "none": 0.0,
        "small": 1 / 8,
        "medium": 1 / 4,
        "large": 1 / 2,
    }


def test_perturb_rejects_bad_parameters(ref_market):
    with pytest.raises(ValueError, match=r"^deviation probability 1.5 outside \[0, 1\]$"):
        perturb_preferences(ref_market, PATIENT, 1.5)
    with pytest.raises(ValueError, match=r"^deviation probability -0.1 outside \[0, 1\]$"):
        perturb_preferences(ref_market, DOCTOR, -0.1)
    with pytest.raises(ValueError, match=r"^deviation probability nan outside \[0, 1\]$"):
        perturb_preferences(ref_market, PATIENT, math.nan)
    with pytest.raises(ValueError, match="^unknown side 'nurse'$"):
        perturb_preferences(ref_market, "nurse", 0.5)
    # Refused at q=0 too, where a known side gets the market back unchanged.
    with pytest.raises(ValueError, match="^unknown side 'nurse'$"):
        perturb_preferences(ref_market, "nurse", 0.0)


def test_perturb_q_zero_is_identity(ref_market):
    assert perturb_preferences(ref_market, PATIENT, 0.0, 1) is ref_market


def test_perturb_q_one_resamples_every_list(ref_market):
    out = perturb_preferences(ref_market, PATIENT, 1.0, 3)
    cm_in, cm_out = ref_market.categories[0], out.categories[0]
    for before, after in zip(cm_in.patient_prefs, cm_out.patient_prefs):
        assert set(before) == set(after)
    # Doctors untouched.
    assert cm_in.doctor_prefs == cm_out.doctor_prefs
    assert validate_market(out) == []


def test_perturb_is_deterministic(ref_market):
    first, second = (perturb_preferences(ref_market, DOCTOR, 0.5, seed="abc") for _ in "ab")
    assert first == second


def test_perturb_preserves_validity_partial():
    market = generate_random_market(2, 6, 4, list_length=3, seed=4)
    out = perturb_preferences(market, PATIENT, 0.7, 9)
    assert validate_market(out) == []
    for cm_in, cm_out in zip(market.categories, out.categories):
        for before, after in zip(cm_in.patient_prefs, cm_out.patient_prefs):
            assert set(before) == set(after)


def test_expected_deviator_count():
    # E[deviators per category] = q*n; Monte Carlo check at 3 standard errors.
    n, q, runs = 80, 1 / 8, 1000
    market = generate_random_market(1, n, n, seed=0)
    counts = []
    for seed in range(runs):
        out = perturb_preferences(market, PATIENT, q, seed)
        changed = sum(
            a != b
            for a, b in zip(market.categories[0].patient_prefs,
                            out.categories[0].patient_prefs)
        )
        counts.append(changed)
    mean = sum(counts) / runs
    # Resampling can reproduce the original list with probability 1/n!; at
    # n=80 that is negligible, so "changed" is Bernoulli(q) per agent.
    se = math.sqrt(n * q * (1 - q) / runs)
    assert abs(mean - n * q) <= 3 * se


def test_first_pick_distance_degenerate():
    result = estimate_first_pick_distance(1, trials=100, seed=0)
    assert result.mean == 0.0
    assert result.std_error == 0.0


def test_first_pick_distance_small_n():
    result = estimate_first_pick_distance(2, trials=100_000, seed=1)
    assert abs(result.mean - 0.5) <= 3 * result.std_error


def test_first_pick_distance_errors():
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        estimate_first_pick_distance(0, 10)
    with pytest.raises(ValueError, match="^trials must be >= 1$"):
        estimate_first_pick_distance(5, 0)


def exhaustive_total_distance_n2():
    """Enumerate every random draw of the size-2 mechanism dynamics exactly.

    Randomness: the patient picked first (2), each patient's preference
    permutation (2 x 2), and the first patient's doctor choice (2). All 16
    outcomes are equally likely.
    """
    total = 0.0
    outcomes = 0
    for first, p0, p1, choice in product(
        range(2), permutations(range(2)), permutations(range(2)), range(2)
    ):
        prefs = [list(p0), list(p1)]
        second = 1 - first
        chosen_first = prefs[first][choice]
        chosen_second = next(d for d in prefs[second] if d != chosen_first)
        total += prefs[first].index(chosen_first) + prefs[second].index(chosen_second)
        outcomes += 1
    return total / outcomes


def test_total_distance_exact_small_cases():
    assert estimate_total_distance(1, trials=50, seed=0).mean == 0.0
    expected = exhaustive_total_distance_n2()
    result = estimate_total_distance(2, trials=100_000, seed=2)
    tolerance = max(3 * result.std_error, 1e-9)
    assert abs(result.mean - expected) <= tolerance


def test_total_distance_errors():
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        estimate_total_distance(0, 10)
    with pytest.raises(ValueError, match="^trials must be >= 1$"):
        estimate_total_distance(4, 0)


def test_geometric_rejections_p_zero():
    result = simulate_geometric_rejections(0.0, horizon=16, trials=500, seed=0)
    assert result.mean == 1.0  # only the k=0 term fires, with probability 1
    assert result.std_error == 0.0


def test_geometric_rejections_half():
    result = simulate_geometric_rejections(0.5, horizon=64, trials=50_000, seed=1)
    assert abs(result.mean - 2.0) <= 3 * result.std_error


def test_geometric_rejections_finite_horizon_closed_form():
    p, horizon = 0.5, 3
    expected = sum(p**k for k in range(horizon))  # 1.75
    result = simulate_geometric_rejections(p, horizon, trials=100_000, seed=2)
    assert abs(result.mean - expected) <= 3 * result.std_error


def test_geometric_rejections_multi_agent_total():
    agents = 16
    result = simulate_geometric_rejections(
        0.5, horizon=32, trials=20_000, seed=3, agents=agents
    )
    assert abs(result.mean - 2 * agents) <= 3 * result.std_error


def test_geometric_rejections_errors():
    with pytest.raises(ValueError):
        simulate_geometric_rejections(1.0, 4, 10)
    with pytest.raises(ValueError):
        simulate_geometric_rejections(-0.1, 4, 10)
    with pytest.raises(ValueError, match="^trials must be >= 1$"):
        simulate_geometric_rejections(0.5, 4, 0)
    with pytest.raises(ValueError, match="^horizon must be >= 1$"):
        simulate_geometric_rejections(0.5, 0, 10)
    with pytest.raises(ValueError, match="^agents must be >= 1$"):
        simulate_geometric_rejections(0.5, 4, 10, agents=0)
