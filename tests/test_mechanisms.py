import math
import random
import statistics
from collections import Counter

import pytest

from conftest import labels
from medmatch import (
    InvalidMarketError,
    Matching,
    generate_random_market,
    market_from_rankings,
    ramhecs,
    tomhecs,
)
from medmatch.market import DOCTOR, PARTIAL, PATIENT, Market, opposite
from medmatch.mechanisms import (
    CategoryTrace,
    ramhecs_category,
    run_categories,
    tomhecs_category,
)
from medmatch.oracle import find_blocking_pairs


def full_scan_deferred_acceptance(cm, proposing_side=PATIENT, events=None):
    """Reference batch deferred acceptance used to cross-check
    tomhecs_category: every round scans the whole proposer roster for the
    free proposers. O(rounds x roster); same counters and events. A
    receiver reads its own list, never the rank table tomhecs_category reads.
    """
    proposals = rejections = rounds = 0
    proposers = cm.roster(proposing_side)
    receivers = cm.roster(opposite(proposing_side))
    prefs = cm.prefs(proposing_side)
    receiver_prefs = cm.prefs(opposite(proposing_side))
    next_choice = [0] * len(proposers)
    engaged_to = [None] * len(proposers)
    holder = [None] * len(receivers)
    while True:
        offers = {}
        proposed = False
        for p in range(len(proposers)):
            if engaged_to[p] is not None or next_choice[p] >= len(prefs[p]):
                continue
            r = prefs[p][next_choice[p]]
            next_choice[p] += 1
            proposed = True
            proposals += 1
            if events is not None:
                events.append(("propose", rounds + 1, proposers[p], receivers[r]))
            if p not in receiver_prefs[r]:
                rejections += 1
                if events is not None:
                    events.append(("reject", rounds + 1, proposers[p], receivers[r]))
                continue
            offers.setdefault(r, []).append(p)
        if not proposed:
            break
        rounds += 1
        for r, candidates in offers.items():
            if holder[r] is not None:
                candidates.append(holder[r])
            best = min(candidates, key=receiver_prefs[r].index)
            for c in candidates:
                if c != best:
                    rejections += 1
                    engaged_to[c] = None
                    if events is not None:
                        events.append(("reject", rounds, proposers[c], receivers[r]))
            if holder[r] != best:
                holder[r] = best
                engaged_to[best] = r
                if events is not None:
                    events.append(("hold", rounds, proposers[best], receivers[r]))
    pairs = [
        (proposers[p], receivers[r]) if proposing_side == PATIENT else (receivers[r], proposers[p])
        for p, r in enumerate(engaged_to)
        if r is not None
    ]
    return frozenset(pairs), CategoryTrace(cm.category, proposals, rejections, rounds)


def ordinal_partners(cm, pairs):
    """A reference's AgentId pairs as the per-side partner lists the
    mechanisms return, built and checked by Matching.from_pairs."""
    rosters = {cm.category: (cm.patient_hospitals, cm.doctor_hospitals)}
    ordinals = [(p.ordinal, d.ordinal) for p, d in pairs]
    return Matching.from_pairs(rosters, {cm.category: ordinals}).by_category[cm.category]


def set_scan_ramhecs(cm, rng):
    """Reference randomized pairing used to cross-check ramhecs_category:
    every draw rebuilds the patient's candidate list by scanning its whole
    list against a set of free doctors and the doctors' lists. O(n) per
    draw; same pairs, counters and RNG draws.
    """
    proposals = draws = 0
    prefs = cm.patient_prefs
    doctor_prefs = cm.doctor_prefs
    patients, doctors = cm.roster(PATIENT), cm.roster(DOCTOR)
    available = set(range(len(doctors)))
    active = list(range(len(patients)))
    pairs = []
    while active:
        draws += 1
        pos = rng.randrange(len(active))
        t = active[pos]
        candidates = [
            d for d in prefs[t] if d in available and t in doctor_prefs[d]
        ]
        if not candidates:
            active.pop(pos)
            continue
        d = rng.choice(candidates)
        proposals += 1
        pairs.append((patients[t], doctors[d]))
        active.pop(pos)
        available.remove(d)
    return frozenset(pairs), CategoryTrace(cm.category, proposals, 0, draws)


def test_tomhecs_reference_final_matching(ref_market):
    matching, stats = tomhecs(ref_market, PATIENT)
    assert labels(matching.pairs(0)) == [
        ("p1", "d3"),
        ("p2", "d2"),
        ("p3", "d1"),
        ("p4", "d4"),
    ]
    assert stats.rejections <= stats.proposals <= 16


def test_tomhecs_first_round_rejection(ref_market):
    # d4 receives p1 and p3 in round one and keeps p3.
    _, stats = tomhecs(ref_market, PATIENT, record_trace=True)
    round_one = [e for e in stats.events if e[1] == 1]
    proposals_to_d4 = {
        e[2].label for e in round_one if e[0] == "propose" and e[3].label == "d4"
    }
    assert proposals_to_d4 == {"p1", "p3"}
    assert ("reject", 1, "p1", "d4") in [
        (k, r, p.label, d.label) for k, r, p, d in round_one
    ]
    assert ("hold", 1, "p3", "d4") in [
        (k, r, p.label, d.label) for k, r, p, d in round_one
    ]


def test_tomhecs_is_deterministic(ref_market):
    a, sa = tomhecs(ref_market, PATIENT)
    b, sb = tomhecs(ref_market, PATIENT)
    assert a == b
    assert sa.proposals == sb.proposals and sa.rejections == sb.rejections


def test_single_pair_market_forced_outcome():
    market = market_from_rankings([[0]], [[0]])
    for seed in range(5):
        matching, _ = ramhecs(market, seed)
        assert labels(matching.pairs(0)) == [("p1", "d1")]
    matching, _ = tomhecs(market, PATIENT)
    assert labels(matching.pairs(0)) == [("p1", "d1")]


def test_identity_market_mutual_first_choices():
    n = 5
    rankings = [[i] + [j for j in range(n) if j != i] for i in range(n)]
    market = market_from_rankings(rankings, rankings)
    matching, stats = tomhecs(market, PATIENT)
    assert labels(matching.pairs(0)) == [(f"p{i+1}", f"d{i+1}") for i in range(n)]
    assert stats.rejections == 0
    assert stats.outer_iterations == 1


def test_ramhecs_is_deterministic(ref_market):
    a, _ = ramhecs(ref_market, seed=42)
    b, _ = ramhecs(ref_market, seed=42)
    assert a == b


def test_ramhecs_reference_draw_is_reachable(ref_market):
    # The illustrated random draw {(p3,d4),(p2,d3),(p4,d1),(p1,d2)} must be an
    # admissible outcome of the random process.
    target = [("p1", "d2"), ("p2", "d3"), ("p3", "d4"), ("p4", "d1")]
    seen = set()
    for seed in range(2000):
        matching, _ = ramhecs(ref_market, seed)
        seen.add(tuple(labels(matching.pairs(0))))
    assert tuple(target) in seen


def test_ramhecs_pairs_are_mutually_listed():
    for seed in range(20):
        market = generate_random_market(2, 6, 5, list_length=3, seed=seed)
        matching, _ = ramhecs(market, seed)
        for cm in market.categories:
            for p, d in matching.pairs(cm.category):
                assert d.ordinal in cm.patient_prefs[p.ordinal]
                assert p.ordinal in cm.doctor_prefs[d.ordinal]


def test_ramhecs_full_balanced_is_perfect():
    market = generate_random_market(3, 6, 6, seed=5)
    matching, _ = ramhecs(market, seed=9)
    for cm in market.categories:
        assert matching.matched_count(cm.category) == 6


def test_ramhecs_can_produce_blocking_pairs():
    # Randomized pairing gives no stability guarantee; exhibit an unstable draw.
    found = False
    for seed in range(50):
        market = generate_random_market(1, 5, 5, seed=seed)
        matching, _ = ramhecs(market, seed=seed)
        if find_blocking_pairs(market.categories[0], matching):
            found = True
            break
    assert found


def test_tomhecs_partial_lists_leave_exhausted_proposers_unmatched():
    # Both patients only list d1; the loser stays unmatched.
    market = market_from_rankings([[0], [0]], [[0, 1]], mode="partial")
    matching, stats = tomhecs(market, PATIENT)
    assert labels(matching.pairs(0)) == [("p1", "d1")]
    assert stats.rejections == 1


def test_tomhecs_rejects_proposer_absent_from_receiver_list():
    # d1 does not list p2 at all.
    market = market_from_rankings([[0, 1], [0]], [[0], [1, 0]], mode="partial")
    matching, stats = tomhecs(market, PATIENT)
    assert labels(matching.pairs(0)) == [("p1", "d1")]
    assert stats.rejections == 1  # p2's proposal to d1 bounces immediately


# Two hand-built partial markets, each shaped the same from both sides, with
# each side's exact outcome: partners per side, proposals, rejections,
# rounds, and the events as (kind, round, proposer, receiver) labels.
# - "displaced_exhausted": p2 (d1 as proposer) is held in round 1 on a
#   one-entry list and displaced in round 2, and is not queued again.
# - "displaced_in_round": in round 1, p1 (d1) is held and then displaced
#   by a preferred proposer to the same receiver; only the final hold is
#   emitted.
DA_CASES = {
    "displaced_exhausted": (
        [[2], [1], [2, 1, 0]],  # p1: d3; p2: d2; p3: d3 > d2 > d1
        [[2], [0, 2, 1], [1]],  # d1: p3; d2: p1 > p3 > p2; d3: p2
        {
            PATIENT: (
                {PATIENT: [None, None, 1], DOCTOR: [None, 2, None]},
                (4, 3, 2),
                [
                    ("propose", 1, "p1", "d3"),
                    ("reject", 1, "p1", "d3"),
                    ("propose", 1, "p2", "d2"),
                    ("propose", 1, "p3", "d3"),
                    ("reject", 1, "p3", "d3"),
                    ("hold", 1, "p2", "d2"),
                    ("propose", 2, "p3", "d2"),
                    ("reject", 2, "p2", "d2"),
                    ("hold", 2, "p3", "d2"),
                ],
            ),
            DOCTOR: (
                {PATIENT: [None, None, 1], DOCTOR: [None, 2, None]},
                (4, 3, 2),
                [
                    ("propose", 1, "d1", "p3"),
                    ("propose", 1, "d2", "p1"),
                    ("reject", 1, "d2", "p1"),
                    ("propose", 1, "d3", "p2"),
                    ("reject", 1, "d3", "p2"),
                    ("hold", 1, "d1", "p3"),
                    ("propose", 2, "d2", "p3"),
                    ("reject", 2, "d1", "p3"),
                    ("hold", 2, "d2", "p3"),
                ],
            ),
        },
    ),
    "displaced_in_round": (
        [[1], [1, 0]],  # p1: d2; p2: d2 > d1
        [[1], [1, 0]],  # d1: p2; d2: p2 > p1
        {
            PATIENT: (
                {PATIENT: [None, 1], DOCTOR: [None, 1]},
                (2, 1, 1),
                [
                    ("propose", 1, "p1", "d2"),
                    ("propose", 1, "p2", "d2"),
                    ("reject", 1, "p1", "d2"),
                    ("hold", 1, "p2", "d2"),
                ],
            ),
            DOCTOR: (
                {PATIENT: [None, 1], DOCTOR: [None, 1]},
                (2, 1, 1),
                [
                    ("propose", 1, "d1", "p2"),
                    ("propose", 1, "d2", "p2"),
                    ("reject", 1, "d1", "p2"),
                    ("hold", 1, "d2", "p2"),
                ],
            ),
        },
    ),
}


@pytest.mark.parametrize("side", [PATIENT, DOCTOR])
@pytest.mark.parametrize("case", sorted(DA_CASES))
def test_tomhecs_counters_and_events_on_hand_built_markets(case, side):
    patient_rankings, doctor_rankings, outcomes = DA_CASES[case]
    cm = market_from_rankings(patient_rankings, doctor_rankings, PARTIAL).categories[0]
    partners, counts, expected_events = outcomes[side]
    events = []
    result, trace = tomhecs_category(cm, side, events)
    assert result == partners
    assert (trace.proposals, trace.rejections, trace.outer_iterations) == counts
    assert [(k, rnd, p.label, r.label) for k, rnd, p, r in events] == expected_events
    assert tomhecs_category(cm, side) == (result, trace)


def test_tomhecs_doctor_proposing(ref_market):
    matching, _ = tomhecs(ref_market, DOCTOR)
    # Doctor-optimal stable matching of the reference market.
    cm = ref_market.categories[0]
    assert not find_blocking_pairs(cm, matching)
    assert matching.matched_count(0) == 4


def test_tomhecs_proposer_approaches_descend_own_list(ref_market):
    _, stats = tomhecs(ref_market, PATIENT, record_trace=True)
    cm = ref_market.categories[0]
    approached = {}
    for kind, _, proposer, receiver in stats.events:
        if kind != "propose":
            continue
        row = cm.patient_prefs[proposer.ordinal]
        approached.setdefault(proposer, []).append(row.index(receiver.ordinal))
    for ranks in approached.values():
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(ranks)


def test_proposal_bound_random_markets():
    for seed in range(30):
        market = generate_random_market(2, 7, 5, seed=seed)
        _, stats = tomhecs(market, PATIENT)
        assert stats.proposals <= 2 * 7 * 5


def test_invalid_market_is_rejected(ref_market):
    cm = ref_market.categories[0]
    broken = Market((cm, cm))  # duplicate category index
    with pytest.raises(InvalidMarketError):
        tomhecs(broken, PATIENT)
    with pytest.raises(InvalidMarketError):
        ramhecs(broken, 0)


def test_run_categories_unknown_name(ref_market):
    with pytest.raises(ValueError, match="unknown mechanism"):
        run_categories(ref_market, "foo")
    with pytest.raises(ValueError, match="^unknown proposing side 'nobody'$"):
        run_categories(ref_market, "tomhecs", "nobody")


@pytest.mark.parametrize("side", [PATIENT, DOCTOR])
@pytest.mark.parametrize("lists", ["full", "generator_partial", "random_length"])
def test_tomhecs_matches_full_scan_reference(lists, side):
    rng = random.Random(f"full-scan:{lists}:{side}")
    unequal = crowded = 0
    for seed in range(100):
        n, m = rng.randint(0, 40), rng.randint(0, 40)
        unequal += n != m
        if lists == "random_length":
            # Every agent lists a random-length, randomly ordered subset.
            market = market_from_rankings(
                [rng.sample(range(m), rng.randint(0, m)) for _ in range(n)],
                [rng.sample(range(n), rng.randint(0, n)) for _ in range(m)],
                PARTIAL,
            )
        else:
            length = rng.randint(0, min(n, m)) if lists == "generator_partial" else None
            market = generate_random_market(1, n, m, list_length=length, seed=seed)
        cm = market.categories[0]
        events, ref_events = [], []
        partners, trace = tomhecs_category(cm, side, events)
        ref_pairs, ref_trace = full_scan_deferred_acceptance(cm, side, ref_events)
        expected = (ordinal_partners(cm, ref_pairs), ref_trace, ref_events)
        assert (partners, trace, events) == expected, (n, m, seed)
        # Untraced, as every production caller runs it.
        assert tomhecs_category(cm, side) == expected[:2], (n, m, seed)
        # A round that brings one receiver two acceptable offers is where a
        # one-pass loop would emit a transient hold.
        receiver_prefs = cm.prefs(opposite(side))
        offers = Counter(
            (rnd, r.ordinal)
            for kind, rnd, p, r in ref_events
            if kind == "propose" and p.ordinal in receiver_prefs[r.ordinal]
        )
        crowded += max(offers.values(), default=0) >= 2
    assert unequal >= 80 and crowded >= 40, (unequal, crowded)


def random_lists(rng, owners, width, full):
    """One randomly ordered list per owner: every counterpart when full,
    else a random-length subset."""
    return [
        rng.sample(range(width), width if full else rng.randint(0, width))
        for _ in range(owners)
    ]


# lists -> whether patients' and doctors' lists are full; None draws it per market.
RAMHECS_LISTS = {
    "patients_full": (True, False),
    "doctors_full": (False, True),
    "random_length": (False, False),
    "tiny": (None, None),
}


@pytest.mark.parametrize(
    "lists", ["full", "full_unequal", "generator_partial", "empty", *RAMHECS_LISTS]
)
def test_ramhecs_matches_set_scan_reference(lists):
    rng = random.Random(f"set-scan:{lists}")
    for seed in range(60):
        n, m = rng.randint(0, 40), rng.randint(0, 40)
        if lists == "full":
            m = n
        elif lists == "tiny":
            n, m = seed % 2, rng.randint(0, 3)
        if lists in ("full", "full_unequal"):
            market = generate_random_market(1, n, m, seed=seed)
        elif lists == "generator_partial":
            length = rng.randint(0, min(n, m))
            market = generate_random_market(1, n, m, list_length=length, seed=seed)
        elif lists == "empty":
            market = market_from_rankings([[]] * n, [[]] * m, PARTIAL)
        else:
            full = [rng.random() < 0.5 if f is None else f for f in RAMHECS_LISTS[lists]]
            market = market_from_rankings(
                random_lists(rng, n, m, full[0]), random_lists(rng, m, n, full[1]), PARTIAL
            )
        cm = market.categories[0]
        rng_new, rng_ref = random.Random(seed), random.Random(seed)
        partners, trace = ramhecs_category(cm, rng_new)
        ref_pairs, ref_trace = set_scan_ramhecs(cm, rng_ref)
        assert (partners, trace) == (ordinal_partners(cm, ref_pairs), ref_trace), (n, m, seed)
        assert rng_new.getstate() == rng_ref.getstate(), (n, m, seed)


def test_randrange_and_choice_draw_alike():
    # ramhecs_category writes each draw below c out as this rejection loop
    # on getrandbits; randrange(c) and choice over c items must draw alike.
    def inlined(rng, c):
        bits = c.bit_length()
        i = rng.getrandbits(bits)
        while i >= c:
            i = rng.getrandbits(bits)
        return i

    for c in (1, 2, 3, 255, 256, 257, 1023, 1024, 4096, 2**31 + 1):
        ours, by_randrange, by_choice = (random.Random(f"draw:{c}") for _ in range(3))
        for _ in range(50):
            i = inlined(ours, c)
            assert i == by_randrange.randrange(c) == by_choice.choice(range(c)), c
        assert ours.getstate() == by_randrange.getstate() == by_choice.getstate(), c


class ReadPrefix(tuple):
    """A proposer's list that may be read only by index, and only within
    its first `readable` entries; len() stays the whole list's."""

    def __new__(cls, row, readable):
        guarded = super().__new__(cls, row)
        guarded.readable = readable
        return guarded

    def __getitem__(self, index):
        if not isinstance(index, int) or not 0 <= index < self.readable:
            raise AssertionError(f"read entry {index!r} past a read prefix of {self.readable}")
        return super().__getitem__(index)

    def _read_whole(self, *args):
        raise AssertionError("read a proposer's list whole")

    __iter__ = __contains__ = index = count = _read_whole


def test_tomhecs_reads_no_list_past_the_final_partner():
    # The read contract the misreport sweep relies on: a proposer's list is
    # read in order and never past the entry it ends matched to, or past its
    # end when it ends unmatched. Fenced there, every run replays exactly.
    rng = random.Random("read-contract")
    shapes = {"full": 0, "partial": 0, "unequal": 0}
    for seed in range(240):
        n, m = rng.randint(1, 12), rng.randint(1, 12)
        full = seed % 3 == 0
        if full:
            market = generate_random_market(1, n, m, seed=seed)
        else:
            market = market_from_rankings(
                random_lists(rng, n, m, False), random_lists(rng, m, n, False), PARTIAL
            )
        shapes["full" if full else "partial"] += 1
        shapes["unequal"] += n != m
        cm = market.categories[0]
        for side in (PATIENT, DOCTOR):
            expected = tomhecs_category(cm, side)
            partner = expected[0][side]
            prefs = cm.prefs(side)
            for p, row in enumerate(prefs):
                readable = len(row) if partner[p] is None else row.index(partner[p]) + 1
                guarded = prefs[:p] + (ReadPrefix(row, readable),) + prefs[p + 1 :]
                assert tomhecs_category(cm, side, prefs=guarded) == expected, (seed, side, p)
    assert shapes["full"] >= 60 and shapes["partial"] >= 150 and shapes["unequal"] >= 150, shapes


def test_proposal_counts_on_full_markets():
    # Every proposal ends held or rejected, and the mean count stays within
    # the coupon-collector bound n * H_n for full n x n markets (Wilson 1972;
    # Knuth 1976), allowing three standard errors.
    n = 64
    counts = []
    for seed in range(300):
        cm = generate_random_market(1, n, n, seed=f"proposals:{seed}").categories[0]
        partners, trace = tomhecs_category(cm, (PATIENT, DOCTOR)[seed % 2])
        matched = len(partners[PATIENT]) - partners[PATIENT].count(None)
        assert trace.rejections == trace.proposals - matched, seed
        counts.append(trace.proposals)
    mean = statistics.fmean(counts)
    std_error = statistics.stdev(counts) / math.sqrt(len(counts))
    bound = n * sum(1 / k for k in range(1, n + 1))
    assert mean <= bound + 3 * std_error, (mean, bound, std_error)
