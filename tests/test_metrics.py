import random
import re

import pytest

from conftest import REF_DOCTOR_RANKINGS, REF_PATIENT_RANKINGS, scores
from medmatch import (
    Matching,
    eta_zeta,
    find_blocking_pairs,
    generate_random_market,
    market_from_rankings,
    perturb_preferences,
    ramhecs,
    tomhecs,
)
from medmatch.market import DOCTOR, PATIENT, opposite
from medmatch.metrics import partner_ranks


def test_reference_market_eta(ref_market):
    matching, _ = tomhecs(ref_market, PATIENT)
    eta, _ = scores(ref_market, matching, PATIENT)
    assert eta == {0: 7}  # assigned ranks 1, 2, 2, 2
    eta, _ = scores(ref_market, matching, DOCTOR)
    assert eta == {0: 4}  # assigned ranks 3, 0, 1, 0


def test_reference_market_zeta(ref_market):
    matching, _ = tomhecs(ref_market, PATIENT)
    _, zeta_p = scores(ref_market, matching, PATIENT)
    assert zeta_p == {0: 0}
    _, zeta_d = scores(ref_market, matching, DOCTOR)
    assert zeta_d == {0: 2}  # d2 holds p2 and d4 holds p4


def test_identity_market_all_first_choices():
    n = 4
    rankings = [[i] + [j for j in range(n) if j != i] for i in range(n)]
    market = market_from_rankings(rankings, rankings)
    matching, _ = tomhecs(market, PATIENT)
    for side in (PATIENT, DOCTOR):
        assert scores(market, matching, side) == ({0: 0}, {0: n})


@pytest.mark.parametrize("seed", range(8))
def test_full_choice_equivalence(seed):
    # eta == 0 iff zeta == roster size, whenever everyone is matched.
    market = generate_random_market(1, 4, 4, seed=seed)
    matching, _ = tomhecs(market, PATIENT)
    eta_by_cat, zeta_by_cat = scores(market, matching, PATIENT)
    assert (eta_by_cat[0] == 0) == (zeta_by_cat[0] == 4)


def test_relabeling_invariance():
    # Permuting agent ordinals while permuting all lists consistently must
    # leave eta and zeta unchanged.
    base_p = [[1, 0, 2], [2, 1, 0], [0, 2, 1]]
    base_d = [[2, 0, 1], [1, 2, 0], [0, 1, 2]]
    market = market_from_rankings(base_p, base_d)
    matching, _ = tomhecs(market, PATIENT)
    before = scores(market, matching, PATIENT)

    perm_p = [2, 0, 1]  # new ordinal of old patient i
    perm_d = [1, 2, 0]
    inv_p = sorted(range(3), key=perm_p.__getitem__)
    inv_d = sorted(range(3), key=perm_d.__getitem__)
    relabeled = market_from_rankings(
        [[perm_d[j] for j in base_p[i]] for i in inv_p],
        [[perm_p[i] for i in base_d[j]] for j in inv_d],
    )
    matching2, _ = tomhecs(relabeled, PATIENT)
    assert scores(relabeled, matching2, PATIENT) == before


def test_unmatched_agents_score_list_length():
    # Two patients, one doctor listing both; the loser contributes its full
    # list length to eta and nothing to zeta.
    market = market_from_rankings([[0], [0]], [[0, 1]], mode="partial")
    matching, _ = tomhecs(market, PATIENT)
    eta, zeta = scores(market, matching, PATIENT)
    assert eta == {0: 0 + 1}
    assert zeta == {0: 1}


def test_partner_absent_from_list_is_an_error():
    # Force a pair that is not on the patient's list: beside an unmatched
    # patient, then on a fully matched side, where partner_ranks' one-pass
    # path fails and falls through to word the fault.
    for patient_lists, pairs in (([[0], [1]], {(0, 1)}), ([[0], [0, 1]], {(0, 1), (1, 0)})):
        cm = market_from_rankings(patient_lists, [[0], [1]], mode="partial").categories[0]
        bogus = Matching.from_pairs({0: (cm.patient_hospitals, cm.doctor_hospitals)}, {0: pairs})
        for score in (partner_ranks, eta_zeta):
            with pytest.raises(ValueError) as err:
                score(cm, bogus.partners(cm), PATIENT)
            assert str(err.value) == "<p1@c0> matched to <d2@c0> absent from its list"


def test_foreign_agents_are_rejected(ref_market):
    # A matching from another market indexes other rosters; scoring it
    # against ref_market's would hide the mistake.
    single = market_from_rankings([[0]], [[0]])
    foreign, _ = tomhecs(single, PATIENT)
    with pytest.raises(ValueError, match="unknown agents"):
        scores(ref_market, foreign, PATIENT)
    with pytest.raises(ValueError, match="unknown agents"):
        scores(ref_market, foreign, DOCTOR)


def test_mean_ordering_tomhecs_vs_ramhecs():
    # Averaged over many random markets, deferred acceptance weakly beats the
    # random baseline on both metrics for the proposing side.
    trials = 300
    eta_t = eta_r = zeta_t = zeta_r = 0
    for seed in range(trials):
        market = generate_random_market(1, 6, 6, seed=seed)
        mt, _ = tomhecs(market, PATIENT)
        mr, _ = ramhecs(market, seed=seed)
        cm = market.categories[0]
        eta, zeta = eta_zeta(cm, mt.partners(cm), PATIENT)
        eta_t, zeta_t = eta_t + eta, zeta_t + zeta
        eta, zeta = eta_zeta(cm, mr.partners(cm), PATIENT)
        eta_r, zeta_r = eta_r + eta, zeta_r + zeta
    assert eta_t / trials <= eta_r / trials
    assert zeta_t / trials >= zeta_r / trials


# Ordinals of another type: True would silently read patient 1, and the
# others raised a bare TypeError.
NOT_INT = {
    "bool_ordinal": (True, 0),
    "float_ordinal": (1.0, 0),
    "str_ordinal": (0, "1"),
    "none_ordinal": (0, None),
}


@pytest.mark.parametrize(
    "case",
    ["negative_ordinal", "off_roster", *NOT_INT, "unknown_category", "other_rosters"],
)
def test_hand_built_matching_off_the_category_is_refused(ref_market, case):
    cm = ref_market.categories[0]
    rosters = (cm.patient_hospitals, cm.doctor_hospitals)
    pairs = {(0, 2), (1, 0)}
    category, refusal = 0, r"unknown agents \(patient"
    if case == "negative_ordinal":
        # Index -1 would silently read the last patient, p4.
        pairs.add((-1, 3))
    elif case == "off_roster":
        pairs.add((2, 4))
    elif case in NOT_INT:
        # Beside one good pair of other agents; (True, 0) == (1, 0), so the
        # set above would swallow it.
        pairs = {(2, 3), NOT_INT[case]}
        message = "matching references unknown agents (patient {!r}, doctor {!r})"
        refusal = "^" + re.escape(message.format(*NOT_INT[case])) + "$"
    elif case == "unknown_category":
        # Pairs for a category the rosters do not cover.
        category, refusal = 1, r"^matching references unknown agents \(category 1 has no rosters\)$"
    else:
        # Same lengths, other agents: the default hospitals differ from
        # ref_market's, though every pair is in range.
        other = market_from_rankings(REF_PATIENT_RANKINGS, REF_DOCTOR_RANKINGS)
        rosters = (other.categories[0].patient_hospitals, other.categories[0].doctor_hospitals)
    if case != "other_rosters":
        # An ordinal or category off the rosters is refused where the matching is built.
        with pytest.raises(ValueError, match=refusal):
            Matching.from_pairs({0: rosters}, {category: pairs})
        return
    # A matching on other rosters is refused where it is scored.
    matching = Matching.from_pairs({0: rosters}, {0: pairs})
    with pytest.raises(ValueError, match="unknown agents: not category 0's rosters"):
        scores(ref_market, matching, PATIENT)
    with pytest.raises(ValueError, match="unknown agents: not category 0's rosters"):
        find_blocking_pairs(cm, matching)


@pytest.mark.parametrize("case", ["patient_twice", "doctor_twice"])
def test_hand_built_pairs_that_are_not_a_matching_are_refused(ref_market, case):
    cm = ref_market.categories[0]
    # One agent paired with three of the other side's.
    pairs = {(1, 0), (1, 1), (1, 2)} if case == "patient_twice" else {(0, 1), (1, 1), (2, 1)}
    # Refused where the matching is built, before anything can score it.
    with pytest.raises(ValueError, match="not a matching: an agent is in two pairs of category 0"):
        Matching.from_pairs({0: (cm.patient_hospitals, cm.doctor_hospitals)}, {0: pairs})


def test_matching_on_a_with_prefs_copy_scores_on_the_original(ref_market):
    perturbed = perturb_preferences(ref_market, PATIENT, 1.0, seed=3)
    assert perturbed.categories[0].patient_prefs != ref_market.categories[0].patient_prefs
    matching, _ = tomhecs(perturbed, PATIENT)
    cm = ref_market.categories[0]
    ranks = cm.ranks[PATIENT]
    expected = sum(ranks[p.ordinal][d.ordinal] for p, d in matching.pairs(0))
    assert scores(ref_market, matching, PATIENT)[0] == {0: expected}
    assert isinstance(find_blocking_pairs(cm, matching), list)


def reference_eta_zeta(cm, matching, side):
    """eta and zeta from the AgentId pairs and the agents' lists alone."""
    partner = {}
    for p, d in matching.pairs(cm.category):
        partner[p], partner[d] = d, p
    others = cm.roster(opposite(side))
    eta = zeta = 0
    for agent, row in zip(cm.roster(side), cm.prefs(side)):
        listed = [others[j] for j in row]
        if agent in partner:
            eta += listed.index(partner[agent])
            zeta += listed[0] == partner[agent]
        else:
            eta += len(listed)
    return eta, zeta


def random_market(seed):
    """Full lists, generated partial lists of one length, or lists of
    random lengths (empty ones too), on rosters of 0 to 6 agents a side.
    """
    rng = random.Random(seed)
    n, m = rng.randint(0, 6), rng.randint(0, 6)
    if seed % 3 == 0:
        return generate_random_market(rng.randint(1, 3), n, m, seed=seed)
    if seed % 3 == 1:
        length = rng.randint(0, min(n, m))
        return generate_random_market(rng.randint(1, 3), n, m, length, seed=seed)

    def lists(size, other):
        return [rng.sample(range(other), rng.randint(0, other)) for _ in range(size)]

    return market_from_rankings(lists(n, m), lists(m, n), mode="partial")


def test_eta_zeta_matches_a_brute_force_scorer():
    seen = {"unequal rosters": 0, "empty list": 0, "unmatched": 0}
    for seed in range(300):
        market = random_market(seed)
        matchings = (
            tomhecs(market, PATIENT)[0],
            tomhecs(market, DOCTOR)[0],
            ramhecs(market, seed=seed)[0],
        )
        for cm in market.categories:
            seen["unequal rosters"] += len(cm.patient_hospitals) != len(cm.doctor_hospitals)
            seen["empty list"] += any(
                not row for row in cm.patient_prefs + cm.doctor_prefs
            )
            for matching in matchings:
                seen["unmatched"] += matching.matched_count(cm.category) < len(
                    cm.patient_hospitals
                )
                for side in (PATIENT, DOCTOR):
                    assert eta_zeta(cm, matching.partners(cm), side) == (
                        reference_eta_zeta(cm, matching, side)
                    ), (seed, cm.category, side)
    assert all(seen.values()), seen


def previous_eta_zeta(cm, partners, side):
    """eta_zeta as one partner_ranks pass."""
    scores = partner_ranks(cm, partners, side)
    zeta = sum(score == 0 < len(row) for score, row in zip(scores, cm.prefs(side)))
    return sum(scores), zeta


def outcome(score, *args):
    try:
        return score(*args)
    except ValueError as exc:
        return str(exc)


def test_eta_zeta_equals_the_partner_ranks_form():
    # The mechanisms' matchings, plus a random one per category that ignores
    # the lists, so some partners are off them: both forms must give the
    # same scores or the same error.
    seen = {"all matched": 0, "unmatched": 0, "empty list": 0, "off list": 0}
    scorings = 0
    for seed in range(400):
        market = random_market(seed)
        rng = random.Random(seed)
        rosters = {
            cm.category: (cm.patient_hospitals, cm.doctor_hospitals) for cm in market.categories
        }
        pairs = {}
        for cm in market.categories:
            n, m = len(cm.patient_hospitals), len(cm.doctor_hospitals)
            count = rng.randint(0, min(n, m))
            pairs[cm.category] = zip(rng.sample(range(n), count), rng.sample(range(m), count))
        matchings = (
            tomhecs(market, PATIENT)[0],
            tomhecs(market, DOCTOR)[0],
            ramhecs(market, seed=seed)[0],
            Matching.from_pairs(rosters, pairs),
        )
        for cm in market.categories:
            for matching in matchings:
                partners = matching.partners(cm)
                for side in (PATIENT, DOCTOR):
                    expected = outcome(previous_eta_zeta, cm, partners, side)
                    assert outcome(eta_zeta, cm, partners, side) == expected, (seed, side)
                    scorings += 1
                    unmatched = None in partners[side]
                    seen["unmatched" if unmatched else "all matched"] += 1
                    seen["empty list"] += unmatched and not all(cm.prefs(side))
                    seen["off list"] += isinstance(expected, str)
    assert scorings >= 1200 and all(seen.values()), (scorings, seen)


def test_partner_ranks_equal_the_rank_table_lookup():
    # partner_ranks reads a partner's position on the agent's list; the rank
    # table holds the same position, and unmatched agents score the list
    # length either way.
    seen = {"full": 0, "partial": 0, "unequal rosters": 0, "unmatched": 0}
    for seed in range(500):
        market = random_market(seed)
        matchings = (
            ramhecs(market, seed=seed)[0],
            tomhecs(market, PATIENT)[0],
            tomhecs(market, DOCTOR)[0],
        )
        for cm in market.categories:
            seen[market.mode] += 1
            seen["unequal rosters"] += len(cm.patient_hospitals) != len(cm.doctor_hospitals)
            for matching in matchings:
                partners = matching.partners(cm)
                for side in (PATIENT, DOCTOR):
                    expected = [
                        len(row) if partner is None else table[partner]
                        for partner, row, table in zip(
                            partners[side], cm.prefs(side), cm.ranks[side]
                        )
                    ]
                    seen["unmatched"] += None in partners[side]
                    assert partner_ranks(cm, partners, side) == expected, (seed, side)
    assert all(seen.values()), seen


def test_from_pairs_round_trips_the_mechanisms_matchings():
    # A mechanism's Matching, read back as ordinal pairs and rebuilt by
    # from_pairs, is the same Matching; and each side's partner list is the
    # inverse of the other's: p -> d exactly when d -> p.
    seen = {"full": 0, "partial": 0, "unequal rosters": 0, "unmatched": 0, "matchings": 0}
    for seed in range(500):
        market = random_market(seed)
        seen[market.mode] += 1
        seen["unequal rosters"] += any(
            len(cm.patient_hospitals) != len(cm.doctor_hospitals) for cm in market.categories
        )
        for matching in (
            ramhecs(market, seed=seed)[0],
            tomhecs(market, PATIENT)[0],
            tomhecs(market, DOCTOR)[0],
        ):
            pairs = {
                c: [(p.ordinal, d.ordinal) for p, d in matching.pairs(c)]
                for c in matching.by_category
            }
            assert Matching.from_pairs(matching.rosters, pairs) == matching, seed
            for partners in matching.by_category.values():
                patient, doctor = partners[PATIENT], partners[DOCTOR]
                assert all(doctor[d] == p for p, d in enumerate(patient) if d is not None), seed
                assert all(patient[p] == d for d, p in enumerate(doctor) if p is not None), seed
                seen["unmatched"] += None in patient + doctor
                seen["matchings"] += 1
    assert all(seen.values()), seen
    assert seen["matchings"] >= 2500, seen
