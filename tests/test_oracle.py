import math
import random
from itertools import permutations

import pytest

from conftest import labels
from medmatch import (
    Matching,
    check_requesting_party_optimal,
    check_truthfulness_exhaustive,
    enumerate_stable_matchings,
    find_blocking_pairs,
    generate_random_market,
    is_stable,
    market_from_rankings,
    ramhecs,
    tomhecs,
)
from medmatch import oracle
from medmatch.market import DOCTOR, PARTIAL, PATIENT, opposite
from medmatch.mechanisms import CategoryTrace, tomhecs_category
from medmatch.metrics import partner_ranks


def pair_up(cm, assignment):
    """Matching from {patient ordinal: doctor ordinal}."""
    return Matching.from_pairs(
        {cm.category: (cm.patient_hospitals, cm.doctor_hospitals)},
        {cm.category: assignment.items()},
    )


def naive_blocking_scan(cm, matching):
    """Independently coded pairwise scan used to cross-check the oracle."""
    p_to_d = dict(matching.pairs(cm.category))
    d_to_p = {d: p for p, d in p_to_d.items()}
    found = set()
    for patient, plist in zip(cm.roster(PATIENT), cm.patient_prefs):
        for doctor, dlist in zip(cm.roster(DOCTOR), cm.doctor_prefs):
            if patient.ordinal not in dlist or doctor.ordinal not in plist:
                continue
            if p_to_d.get(patient) == doctor:
                continue
            current_d = p_to_d.get(patient)
            patient_prefers = current_d is None or plist.index(
                doctor.ordinal
            ) < plist.index(current_d.ordinal)
            current_p = d_to_p.get(doctor)
            doctor_prefers = current_p is None or dlist.index(
                patient.ordinal
            ) < dlist.index(current_p.ordinal)
            if patient_prefers and doctor_prefers:
                found.add((patient, doctor))
    return found


def brute_force_stable_matchings(cm):
    """Reference enumeration used to cross-check the lattice walk: every
    maximal mutually-acceptable matching, grown patient by patient, kept
    when it has no blocking pair. Factorial-time; small rosters only.
    """
    n, m = len(cm.patient_hospitals), len(cm.doctor_hospitals)
    mutual = [
        sorted(d for d in row if p in cm.doctor_prefs[d])
        for p, row in enumerate(cm.patient_prefs)
    ]
    # Grown patient by patient; -1 marks an unmatched patient.
    current = []
    doctor_of = [None] * m
    assignments = []

    def recurse(p):
        if p == n:
            # Not maximal: an unmatched patient and a free mutual doctor
            # block. This cheap scan spares most leaves the full check.
            for q, d in enumerate(current):
                if d == -1 and None in [doctor_of[x] for x in mutual[q]]:
                    return
            partners = {
                PATIENT: [None if d == -1 else d for d in current],
                DOCTOR: doctor_of,
            }
            if not any(oracle._blocking_ordinals(cm, partners)):
                assignments.append(tuple(current))
            return
        for d in mutual[p]:
            if doctor_of[d] is None:
                doctor_of[d] = p
                current.append(d)
                recurse(p + 1)
                current.pop()
                doctor_of[d] = None
        current.append(-1)
        recurse(p + 1)
        current.pop()

    recurse(0)
    return [
        pair_up(cm, {p: d for p, d in enumerate(assignment) if d != -1})
        for assignment in sorted(assignments)
    ]


def reference_truthfulness_sweep(cm, proposing_side, mechanism=tomhecs_category):
    """The misreport sweep as it first ran, kept as the reference: each
    misreport builds a with_prefs copy, runs the mechanism on it, takes the
    matching's partner map and scores every proposer on the TRUE lists.
    """
    counterparts = cm.roster(opposite(proposing_side))
    proposers = cm.roster(proposing_side)
    prefs = cm.prefs(proposing_side)

    def outcome(category):
        return mechanism(category, proposing_side)[0]

    truthful = outcome(cm)
    truthful_scores = partner_ranks(cm, truthful, proposing_side)
    reports = []
    for idx, (agent, row) in enumerate(zip(proposers, prefs)):
        partner = truthful[proposing_side][idx]
        truthful_partner = None if partner is None else counterparts[partner]
        violations = []
        tried = 0
        for perm in permutations(range(len(counterparts))):
            if perm == row:
                continue
            tried += 1
            partners = outcome(
                cm.with_prefs(proposing_side, prefs[:idx] + (perm,) + prefs[idx + 1 :])
            )
            if partner_ranks(cm, partners, proposing_side)[idx] < truthful_scores[idx]:
                misreport = tuple(counterparts[e] for e in perm)
                new_partner = counterparts[partners[proposing_side][idx]]
                violations.append((misreport, truthful_partner, new_partner))
        reports.append(oracle.TruthfulnessReport(agent, tried, violations))
    return reports


def test_tomhecs_output_has_no_blocking_pairs(ref_market, ref_category):
    matching, _ = tomhecs(ref_market, PATIENT)
    assert find_blocking_pairs(ref_category, matching) == []
    assert is_stable(ref_category, matching)
    cm = ref_category
    assert matching.matched_count(0) == len(cm.patient_hospitals) == len(cm.doctor_hospitals)


def test_unstable_perfect_matching_is_flagged(ref_category):
    # {(p1,d3),(p2,d1),(p3,d4),(p4,d2)} leaves p2 and d2 preferring each other.
    matching = pair_up(ref_category, {0: 2, 1: 0, 2: 3, 3: 1})
    blockers = {(b.patient.label, b.doctor.label) for b in find_blocking_pairs(ref_category, matching)}
    assert ("p2", "d2") in blockers
    assert not is_stable(ref_category, matching)


def test_empty_matching_is_unstable(ref_category):
    matching = pair_up(ref_category, {})
    assert not is_stable(ref_category, matching)
    cm = ref_category
    assert not matching.matched_count(0) == len(cm.patient_hospitals) == len(cm.doctor_hospitals)


def test_single_mutual_pair_is_stable():
    market = market_from_rankings([[0]], [[0]])
    cm = market.categories[0]
    matching = pair_up(cm, {0: 0})
    assert is_stable(cm, matching)
    assert matching.matched_count(0) == len(cm.patient_hospitals) == len(cm.doctor_hospitals)
    assert len(enumerate_stable_matchings(cm)) == 1


def test_unknown_agents_rejected(ref_category):
    market = market_from_rankings([[0]], [[0]])
    foreign, _ = tomhecs(market, PATIENT)
    # Other rosters in category 0, and a category 1 the matching has no entry for.
    for cm in (ref_category, generate_random_market(2, 3, 3).categories[1]):
        with pytest.raises(ValueError, match="unknown agents"):
            find_blocking_pairs(cm, foreign)
        with pytest.raises(ValueError, match="unknown agents"):
            is_stable(cm, foreign)
        with pytest.raises(ValueError, match="unknown agents"):
            check_requesting_party_optimal(cm, foreign, PATIENT)


def test_enumeration_contains_proposer_optimal_matching(ref_market, ref_category):
    matching, _ = tomhecs(ref_market, PATIENT)
    stable = enumerate_stable_matchings(ref_category)
    assert any(labels(s.pairs(0)) == labels(matching.pairs(0)) for s in stable)


def test_enumeration_common_rankings_unique_stable():
    # Both patients rank d1 > d2 and both doctors rank p1 > p2: the assortative
    # matching is the unique stable outcome.
    market = market_from_rankings([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    cm = market.categories[0]
    stable = enumerate_stable_matchings(cm)
    assert len(stable) == 1
    assert labels(stable[0].pairs(0)) == [("p1", "d1"), ("p2", "d2")]


def test_enumeration_guard():
    market = generate_random_market(1, 9, 9, seed=0)
    with pytest.raises(ValueError, match="too large"):
        enumerate_stable_matchings(market.categories[0])


def small_market(rng, lists, seed):
    """A one-category market with rosters of 0 to 7 and full lists,
    generator-partial lists or random-length ones."""
    n, m = rng.randint(0, 7), rng.randint(0, 7)
    if lists == "random_length":
        # Every agent lists a random-length, randomly ordered subset.
        return market_from_rankings(
            [rng.sample(range(m), rng.randint(0, m)) for _ in range(n)],
            [rng.sample(range(n), rng.randint(0, n)) for _ in range(m)],
            PARTIAL,
        )
    length = rng.randint(0, min(n, m)) if lists == "generator_partial" else None
    return generate_random_market(1, n, m, list_length=length, seed=seed)


@pytest.mark.parametrize("lists", ["full", "generator_partial", "random_length"])
def test_enumeration_matches_brute_force(lists):
    rng = random.Random(f"enumeration:{lists}")
    for seed in range(150):
        market = small_market(rng, lists, seed)
        cm = market.categories[0]
        n, m = len(cm.patient_hospitals), len(cm.doctor_hospitals)
        assert enumerate_stable_matchings(cm) == brute_force_stable_matchings(cm), (n, m, seed)


def test_enumeration_of_independent_cycles():
    # Four independent 2x2 blocks, each with exactly two stable matchings:
    # within a block the patients' first choices are the doctors who rank
    # them last.
    patients, doctors = [], []
    for lo in range(0, 8, 2):
        patients += [[lo, lo + 1], [lo + 1, lo]]
        doctors += [[lo + 1, lo], [lo, lo + 1]]
    cm = market_from_rankings(patients, doctors, PARTIAL).categories[0]
    stable = enumerate_stable_matchings(cm)
    assert len(stable) == 16
    assert stable == brute_force_stable_matchings(cm)


def test_stable_lattice_facts():
    rng = random.Random("lattice")
    several = 0
    for seed in range(200):
        n, m = rng.randint(2, 8), rng.randint(2, 8)
        length = rng.randint(2, min(n, m))
        market = generate_random_market(1, n, m, list_length=length, seed=seed)
        cm = market.categories[0]
        stable = [s.partners(cm) for s in enumerate_stable_matchings(cm)]
        several += len(stable) > 1 and n != m
        # Rural hospitals: every stable matching matches the same agents.
        for side in (PATIENT, DOCTOR):
            assert len({tuple(p is None for p in s[side]) for s in stable}) == 1
        scores = [partner_ranks(cm, s, PATIENT) for s in stable]
        best = partner_ranks(cm, tomhecs(market, PATIENT)[0].partners(cm), PATIENT)
        worst = partner_ranks(cm, tomhecs(market, DOCTOR)[0].partners(cm), PATIENT)
        assert best in scores and worst in scores
        assert best == [min(ranks) for ranks in zip(*scores)]
        assert worst == [max(ranks) for ranks in zip(*scores)]
    # Enough unequal-roster markets with a non-trivial lattice to mean something.
    assert several >= 5, several


def test_lattice_facts_at_scale():
    # The extreme matchings of n x n markets far past the enumeration guard,
    # with full lists and with short ones.
    differ = 0
    for n, length in ((64, 8), (256, 32), (1024, 64)):
        for list_length in (None, length):
            cm = generate_random_market(1, n, n, list_length=list_length, seed=n).categories[0]
            matchings, extremes = {}, {}
            for side in (PATIENT, DOCTOR):
                extremes[side], _ = tomhecs_category(cm, side)
                assert extremes[side] == oracle._gale_shapley(cm, side), (n, list_length, side)
                # A mechanism's partner lists make a Matching unchecked, as
                # run_categories builds one.
                matchings[side] = Matching(
                    {cm.category: (cm.patient_hospitals, cm.doctor_hospitals)},
                    {cm.category: extremes[side]},
                )
            patient_optimal, doctor_optimal = extremes[PATIENT], extremes[DOCTOR]
            for side in (PATIENT, DOCTOR):
                # Rural hospitals: both extremes match the same agents.
                assert [q is None for q in patient_optimal[side]] == [
                    q is None for q in doctor_optimal[side]
                ], (n, list_length, side)
                # Each side weakly prefers the matching its own side proposed.
                best, worst = (
                    (patient_optimal, doctor_optimal)
                    if side == PATIENT
                    else (doctor_optimal, patient_optimal)
                )
                assert all(
                    a <= b
                    for a, b in zip(partner_ranks(cm, best, side), partner_ranks(cm, worst, side))
                ), (n, list_length, side)
            if n == 1024:
                differ += patient_optimal != doctor_optimal
                for side in (PATIENT, DOCTOR):
                    other = matchings[opposite(side)]
                    assert check_requesting_party_optimal(cm, matchings[side], side)
                    assert check_requesting_party_optimal(cm, other, side) == (
                        patient_optimal == doctor_optimal
                    ), (list_length, side)
    # The "not optimal" verdicts above are not vacuous.
    assert differ, differ


def test_enumeration_does_not_use_the_mechanism(monkeypatch, ref_market, ref_category):
    big = generate_random_market(1, 64, 64, seed=64)
    outcomes = {
        (market, side): tomhecs(market, side)[0]
        for market in (ref_market, big)
        for side in (PATIENT, DOCTOR)
    }

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the mechanism it checks, or enumerated")

    monkeypatch.setattr(oracle, "tomhecs_category", refuse)
    assert len(enumerate_stable_matchings(ref_category)) == 2
    # The optimality check does not enumerate either.
    monkeypatch.setattr(oracle, "enumerate_stable_matchings", refuse)
    for market in (ref_market, big):
        cm = market.categories[0]
        for side in (PATIENT, DOCTOR):
            assert check_requesting_party_optimal(cm, outcomes[market, side], side)
    assert not check_requesting_party_optimal(
        ref_category, outcomes[ref_market, DOCTOR], PATIENT
    )


def reference_requesting_party_optimal(cm, matching, proposing_side):
    """The optimality check as it first ran, kept as the reference: the
    matching against every stable matching the lattice walk enumerates."""
    stable = enumerate_stable_matchings(cm)
    ours = partner_ranks(cm, matching.partners(cm), proposing_side)
    return all(
        mine <= theirs
        for other in stable
        for mine, theirs in zip(ours, partner_ranks(cm, other.partners(cm), proposing_side))
    )


def test_optimality_matches_the_enumeration_reference():
    # Probes: tomhecs from both sides, ramhecs and every stable matching,
    # each judged for both sides.
    rng = random.Random("optimality-differential")
    verdicts = refuted = 0
    for seed in range(6000):
        lists = ("full", "generator_partial", "random_length")[seed % 3]
        market = small_market(rng, lists, seed)
        cm = market.categories[0]
        probes = [
            tomhecs(market, PATIENT)[0],
            tomhecs(market, DOCTOR)[0],
            ramhecs(market, seed=seed)[0],
            *enumerate_stable_matchings(cm),
        ]
        for matching in probes:
            for side in (PATIENT, DOCTOR):
                verdict = check_requesting_party_optimal(cm, matching, side)
                assert verdict == reference_requesting_party_optimal(cm, matching, side), (
                    seed, lists, side
                )
                verdicts += 1
                refuted += not verdict
    # Enough False verdicts that the two checks could disagree.
    assert refuted >= 5000, (refuted, verdicts)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("partial", [False, True])
def test_oracle_soundness_on_random_instances(seed, partial):
    rng = random.Random(f"soundness:{seed}")
    n, m = rng.randint(1, 5), rng.randint(1, 5)
    length = min(n, m) if partial else None
    market = generate_random_market(1, n, m, list_length=length, seed=seed)
    cm = market.categories[0]
    stable = enumerate_stable_matchings(cm)
    assert stable, "at least one stable matching always exists"
    for matching in stable:
        assert naive_blocking_scan(cm, matching) == set()
        assert {
            (b.patient, b.doctor) for b in find_blocking_pairs(cm, matching)
        } == set()
    # The two scans agree on arbitrary (possibly unstable) matchings too.
    for trial in range(5):
        probe, _ = (
            tomhecs(market, PATIENT) if trial == 0 else ramhecs(market, seed=trial)
        )
        assert {
            (b.patient, b.doctor) for b in find_blocking_pairs(cm, probe)
        } == naive_blocking_scan(cm, probe)


@pytest.mark.parametrize("side", [PATIENT, DOCTOR])
def test_reference_market_proposer_optimality(ref_market, ref_category, side):
    matching, _ = tomhecs(ref_market, side)
    assert check_requesting_party_optimal(ref_category, matching, side)


def test_cross_side_optimality_decided_by_oracle(ref_market, ref_category):
    # The reference market has two stable matchings, so the doctor-optimal
    # outcome is not patient-optimal.
    assert len(enumerate_stable_matchings(ref_category)) == 2
    doctor_opt, _ = tomhecs(ref_market, DOCTOR)
    assert not check_requesting_party_optimal(ref_category, doctor_opt, PATIENT)


def test_unique_stable_matching_optimal_for_both_sides():
    market = market_from_rankings([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    cm = market.categories[0]
    for side in (PATIENT, DOCTOR):
        matching, _ = tomhecs(market, side)
        assert check_requesting_party_optimal(cm, matching, PATIENT)
        assert check_requesting_party_optimal(cm, matching, DOCTOR)


def test_truthfulness_reference_market(ref_category):
    reports = check_truthfulness_exhaustive(ref_category, PATIENT)
    assert len(reports) == 4
    for report in reports:
        assert report.misreports_tried == 23
        assert report.violations == []


def test_truthfulness_single_pair():
    market = market_from_rankings([[0]], [[0]])
    reports = check_truthfulness_exhaustive(market.categories[0], PATIENT)
    assert len(reports) == 1
    assert reports[0].misreports_tried == 0
    assert reports[0].violations == []


def test_truthfulness_non_proposing_side_reports_without_asserting(ref_category):
    # The audit runs for the requested party too; it reports violations
    # rather than guaranteeing their absence.
    reports = check_truthfulness_exhaustive(ref_category, DOCTOR)
    assert len(reports) == 4
    assert all(r.misreports_tried == 23 for r in reports)


def test_truthfulness_guards():
    big = generate_random_market(1, 6, 6, seed=0)
    with pytest.raises(ValueError, match="too large"):
        check_truthfulness_exhaustive(big.categories[0], PATIENT)
    partial = generate_random_market(1, 4, 4, list_length=2, seed=0)
    with pytest.raises(ValueError, match="full preference"):
        check_truthfulness_exhaustive(partial.categories[0], PATIENT)


def test_truthfulness_sweep_matches_the_reference_sweep():
    # Full markets with 1 to 6 proposers and at most 5 counterparts, both
    # proposing sides, rosters mostly unequal.
    rng = random.Random("truthfulness-differential")
    unequal = 0
    for seed in range(220):
        side = (PATIENT, DOCTOR)[seed % 2]
        proposers, counterparts = rng.randint(1, 6), rng.randint(0, 5)
        unequal += proposers != counterparts
        n, m = (proposers, counterparts) if side == PATIENT else (counterparts, proposers)
        cm = generate_random_market(1, n, m, seed=f"sweep:{seed}").categories[0]
        reports = check_truthfulness_exhaustive(cm, side)
        assert reports == reference_truthfulness_sweep(cm, side), (seed, side, n, m)
        assert [r.misreports_tried for r in reports] == [
            math.factorial(counterparts) - 1 if counterparts else 0
        ] * proposers
    assert unequal >= 150, unequal


def immediate_acceptance(cm, proposing_side=PATIENT, events=None, *, prefs=None):
    """The Boston mechanism, a manipulable control for the misreport sweep.

    Each round every unmatched proposer proposes to the next entry on its
    list, and each receiver not yet matched accepts, for good, the best of
    that round's proposers it lists. Lists are read as tomhecs_category
    reads them: by index, in order, up to the final partner.
    """
    proposals = rounds = 0
    if prefs is None:
        prefs = cm.prefs(proposing_side)
    receiver_prefs = cm.prefs(opposite(proposing_side))
    next_choice = [0] * len(prefs)
    held = {}  # receiver -> the proposer it accepted
    free = [p for p in range(len(prefs)) if len(prefs[p])]
    while free:
        rounds += 1
        offers = {}
        for p in free:
            r = prefs[p][next_choice[p]]
            next_choice[p] += 1
            proposals += 1
            if r not in held and p in receiver_prefs[r]:
                offers.setdefault(r, []).append(p)
        for r, proposers in offers.items():
            held[r] = min(proposers, key=receiver_prefs[r].index)
        accepted = set(held.values())
        free = [p for p in free if p not in accepted and next_choice[p] < len(prefs[p])]
    partner, holder = [None] * len(prefs), [None] * len(receiver_prefs)
    for r, p in held.items():
        partner[p], holder[r] = r, p
    trace = CategoryTrace(cm.category, proposals, outer_iterations=rounds)
    return {proposing_side: partner, opposite(proposing_side): holder}, trace


def test_truthfulness_sweep_finds_immediate_acceptance_manipulable(monkeypatch):
    # Power control: run on a mechanism that is not strategy-proof, the
    # sweep reports what the per-permutation reference reports, and that is
    # often a violation.
    monkeypatch.setattr(oracle, "tomhecs_category", immediate_acceptance)
    rng = random.Random("immediate-acceptance")
    manipulable = 0
    for seed in range(150):
        side = (PATIENT, DOCTOR)[seed % 2]
        n, m = rng.randint(2, 5), rng.randint(2, 5)
        cm = generate_random_market(1, n, m, seed=f"boston:{seed}").categories[0]
        reports = check_truthfulness_exhaustive(cm, side)
        assert reports == reference_truthfulness_sweep(cm, side, immediate_acceptance), (
            seed, side, n, m
        )
        manipulable += any(report.violations for report in reports)
    assert manipulable >= 50, manipulable


def sampled_misreports(rng, row):
    """Two random permutations, two truncations and two adjacent swaps of a
    full list."""
    m = len(row)
    misreports = [tuple(rng.sample(row, m)) for _ in range(2)]
    misreports += [row[: rng.randrange(m)] for _ in range(2)]
    for i in (rng.randrange(m - 1) for _ in range(2)):
        misreports.append(row[:i] + (row[i + 1], row[i]) + row[i + 2 :])
    return misreports


def sampled_gains(mechanism):
    """(misreports tried, strict gains) over seeded full markets past the
    sweep's guard: n=m of 16, 32 and 64, both proposing sides, 8 sampled
    proposers each. Gains are scored on the TRUE lists."""
    rng = random.Random("sampled-misreports")
    tried = gains = 0
    for n in (16, 32, 64):
        for seed in range(4):
            cm = generate_random_market(1, n, n, seed=f"sampled:{n}:{seed}").categories[0]
            for side in (PATIENT, DOCTOR):
                prefs, own_ranks = cm.prefs(side), cm.ranks[side]
                truthful = mechanism(cm, side)[0][side]
                for idx in rng.sample(range(n), 8):
                    partner = truthful[idx]
                    score = n if partner is None else own_ranks[idx][partner]
                    for misreport in sampled_misreports(rng, prefs[idx]):
                        swapped = prefs[:idx] + (misreport,) + prefs[idx + 1 :]
                        new_partner = mechanism(cm, side, prefs=swapped)[0][side][idx]
                        tried += 1
                        gains += new_partner is not None and own_ranks[idx][new_partner] < score
    return tried, gains


def test_sampled_misreports_past_the_sweep_guard():
    # Deferred acceptance is strategy-proof for the proposing side (Dubins &
    # Freedman 1981; Roth 1982): no sampled misreport gains.
    assert sampled_gains(tomhecs_category) == (1152, 0)
    # Power control: the same misreports do gain under immediate acceptance.
    tried, gains = sampled_gains(immediate_acceptance)
    assert tried == 1152 and gains >= 1, gains
