import pytest

from conftest import REF_DOCTOR_RANKINGS, REF_PATIENT_RANKINGS
from medmatch import (
    Matching,
    PerturbationSpec,
    check_requesting_party_optimal,
    find_blocking_pairs,
    generate_random_market,
    market_from_rankings,
    metrics_report,
    perturb_preferences,
    preferable_allocation_count,
    ramhecs,
    satisfaction_level,
    tomhecs,
)
from medmatch.market import DOCTOR, PATIENT


def test_reference_market_eta(ref_market):
    matching, _ = tomhecs(ref_market, PATIENT)
    per_cat, total = satisfaction_level(ref_market, matching, PATIENT)
    assert per_cat == {0: 7}  # assigned ranks 1, 2, 2, 2
    assert total == 7
    per_cat, total = satisfaction_level(ref_market, matching, DOCTOR)
    assert per_cat == {0: 4}  # assigned ranks 3, 0, 1, 0
    assert total == 4


def test_reference_market_zeta(ref_market):
    matching, _ = tomhecs(ref_market, PATIENT)
    _, zeta_p = preferable_allocation_count(ref_market, matching, PATIENT)
    assert zeta_p == 0
    _, zeta_d = preferable_allocation_count(ref_market, matching, DOCTOR)
    assert zeta_d == 2  # d2 holds p2 and d4 holds p4


def test_identity_market_all_first_choices():
    n = 4
    rankings = [[i] + [j for j in range(n) if j != i] for i in range(n)]
    market = market_from_rankings(rankings, rankings)
    matching, _ = tomhecs(market, PATIENT)
    for side in (PATIENT, DOCTOR):
        _, eta = satisfaction_level(market, matching, side)
        _, zeta = preferable_allocation_count(market, matching, side)
        assert eta == 0
        assert zeta == n


def test_metrics_report_aggregates():
    market = generate_random_market(3, 5, 5, seed=2)
    matching, _ = tomhecs(market, PATIENT)
    report = metrics_report(market, matching, PATIENT)
    assert report.eta == sum(report.eta_by_category.values())
    assert report.zeta == sum(report.zeta_by_category.values())
    assert set(report.eta_by_category) == {0, 1, 2}
    for cat, zeta in report.zeta_by_category.items():
        assert 0 <= zeta <= 5


@pytest.mark.parametrize("seed", range(8))
def test_full_choice_equivalence(seed):
    # eta == 0 iff zeta == roster size, whenever everyone is matched.
    market = generate_random_market(1, 4, 4, seed=seed)
    matching, _ = tomhecs(market, PATIENT)
    eta_by_cat, _ = satisfaction_level(market, matching, PATIENT)
    zeta_by_cat, _ = preferable_allocation_count(market, matching, PATIENT)
    assert (eta_by_cat[0] == 0) == (zeta_by_cat[0] == 4)


def test_relabeling_invariance():
    # Permuting agent ordinals while permuting all lists consistently must
    # leave eta and zeta unchanged.
    base_p = [[1, 0, 2], [2, 1, 0], [0, 2, 1]]
    base_d = [[2, 0, 1], [1, 2, 0], [0, 1, 2]]
    market = market_from_rankings(base_p, base_d)
    matching, _ = tomhecs(market, PATIENT)
    _, eta = satisfaction_level(market, matching, PATIENT)
    _, zeta = preferable_allocation_count(market, matching, PATIENT)

    perm_p = [2, 0, 1]  # new ordinal of old patient i
    perm_d = [1, 2, 0]
    inv_p = sorted(range(3), key=perm_p.__getitem__)
    inv_d = sorted(range(3), key=perm_d.__getitem__)
    relabeled = market_from_rankings(
        [[perm_d[j] for j in base_p[i]] for i in inv_p],
        [[perm_p[i] for i in base_d[j]] for j in inv_d],
    )
    matching2, _ = tomhecs(relabeled, PATIENT)
    _, eta2 = satisfaction_level(relabeled, matching2, PATIENT)
    _, zeta2 = preferable_allocation_count(relabeled, matching2, PATIENT)
    assert (eta, zeta) == (eta2, zeta2)


def test_unmatched_agents_score_list_length():
    # Two patients, one doctor listing both; the loser contributes its full
    # list length to eta and nothing to zeta.
    market = market_from_rankings([[0], [0]], [[0, 1]], mode="partial")
    matching, _ = tomhecs(market, PATIENT)
    _, eta = satisfaction_level(market, matching, PATIENT)
    assert eta == 0 + 1
    _, zeta = preferable_allocation_count(market, matching, PATIENT)
    assert zeta == 1


def test_partner_absent_from_list_is_an_error():
    partial = market_from_rankings([[0], [1]], [[0], [1]], mode="partial")
    cm = partial.categories[0]
    # Force a pair that is not on the patient's list.
    bogus = Matching({0: (cm.patients, cm.doctors)}, {0: frozenset({(0, 1)})})
    with pytest.raises(ValueError, match="absent from its list"):
        satisfaction_level(partial, bogus, PATIENT)


def test_foreign_agents_are_rejected(ref_market):
    # A matching from another market indexes other rosters; scoring it
    # against ref_market's would hide the mistake.
    single = market_from_rankings([[0]], [[0]])
    foreign, _ = tomhecs(single, PATIENT)
    with pytest.raises(ValueError, match="unknown agents"):
        satisfaction_level(ref_market, foreign, PATIENT)
    with pytest.raises(ValueError, match="unknown agents"):
        preferable_allocation_count(ref_market, foreign, DOCTOR)


def test_mean_ordering_tomhecs_vs_ramhecs():
    # Averaged over many random markets, deferred acceptance weakly beats the
    # random baseline on both metrics for the proposing side.
    trials = 300
    eta_t = eta_r = zeta_t = zeta_r = 0
    for seed in range(trials):
        market = generate_random_market(1, 6, 6, seed=seed)
        mt, _ = tomhecs(market, PATIENT)
        mr, _ = ramhecs(market, seed=seed)
        eta_t += satisfaction_level(market, mt, PATIENT)[1]
        eta_r += satisfaction_level(market, mr, PATIENT)[1]
        zeta_t += preferable_allocation_count(market, mt, PATIENT)[1]
        zeta_r += preferable_allocation_count(market, mr, PATIENT)[1]
    assert eta_t / trials <= eta_r / trials
    assert zeta_t / trials >= zeta_r / trials


@pytest.mark.parametrize("case", ["negative_ordinal", "off_roster", "other_rosters"])
def test_hand_built_matching_off_the_category_is_refused(ref_market, case):
    cm = ref_market.categories[0]
    rosters = (cm.patients, cm.doctors)
    pairs = {(0, 2), (1, 0)}
    if case == "negative_ordinal":
        # Index -1 would silently read the last patient, p4.
        pairs.add((-1, 3))
    elif case == "off_roster":
        pairs.add((2, 4))
    else:
        # Same lengths, other agents: the default hospitals differ from
        # ref_market's, though every pair is in range.
        other = market_from_rankings(REF_PATIENT_RANKINGS, REF_DOCTOR_RANKINGS)
        rosters = (other.categories[0].patients, other.categories[0].doctors)
    matching = Matching({0: rosters}, {0: frozenset(pairs)})
    with pytest.raises(ValueError, match="unknown agents"):
        satisfaction_level(ref_market, matching, PATIENT)
    with pytest.raises(ValueError, match="unknown agents"):
        find_blocking_pairs(cm, matching)


@pytest.mark.parametrize("case", ["patient_twice", "doctor_twice"])
def test_hand_built_pairs_that_are_not_a_matching_are_refused(ref_market, case):
    cm = ref_market.categories[0]
    # One agent paired with three of the other side's.
    pairs = {(1, 0), (1, 1), (1, 2)} if case == "patient_twice" else {(0, 1), (1, 1), (2, 1)}
    matching = Matching({0: (cm.patients, cm.doctors)}, {0: frozenset(pairs)})
    for side in (PATIENT, DOCTOR):
        with pytest.raises(ValueError, match="two pairs"):
            satisfaction_level(ref_market, matching, side)
        with pytest.raises(ValueError, match="two pairs"):
            check_requesting_party_optimal(cm, matching, side)
    with pytest.raises(ValueError, match="two pairs"):
        find_blocking_pairs(cm, matching)


def test_matching_on_a_with_prefs_copy_scores_on_the_original(ref_market):
    perturbed = perturb_preferences(ref_market, PerturbationSpec(PATIENT, 1.0, seed=3))
    assert perturbed.categories[0].patient_prefs != ref_market.categories[0].patient_prefs
    matching, _ = tomhecs(perturbed, PATIENT)
    cm = ref_market.categories[0]
    ranks = cm.ranks[PATIENT]
    expected = sum(ranks[p.ordinal][d.ordinal] for p, d in matching.pairs(0))
    assert satisfaction_level(ref_market, matching, PATIENT) == ({0: expected}, expected)
    assert isinstance(find_blocking_pairs(cm, matching), list)
