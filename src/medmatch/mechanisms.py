"""The two allocation mechanisms: random serial pairing and deferred acceptance.

Both operate per category (categories are independent sub-markets) and
return each agent's partner ordinal per side, the form a Matching stores,
plus TraceStats counters. The deferred-acceptance mechanism is fully
deterministic; the randomized one derives a dedicated RNG stream per
(seed, category) so categories could be processed in any order with
identical results.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import compress, islice

from .market import (
    DOCTOR,
    PATIENT,
    SIDES,
    AgentId,
    CategoryMarket,
    InvalidMarketError,
    Market,
    opposite,
    validate_market,
)

RAMHECS = "ramhecs"
TOMHECS = "tomhecs"
MECHANISMS = (RAMHECS, TOMHECS)


CategoryTrace = namedtuple(
    "CategoryTrace", "proposals rejections outer_iterations", defaults=(0, 0, 0)
)
CategoryTrace.__doc__ = """One category's counters, set once when its mechanism
run ends; its category is its position in TraceStats.per_category.

Under ramhecs, proposals is the matched count, rejections is always 0 and
outer_iterations is the number of patients drawn, always n. Under tomhecs,
proposals is every proposal made, rejections is proposals less the matched
count and outer_iterations is the number of rounds. So under both,
proposals - rejections is the category's matched count.
"""


TraceStats = namedtuple("TraceStats", "per_category events", defaults=(None,))
TraceStats.__doc__ = """A run's CategoryTrace per category, in category order,
and, when tracing is requested, its (kind, round, proposer, receiver)
events; kind is "propose", "hold", or "reject".
"""


def invert(partners: list[int | None], size: int) -> list[int | None]:
    """The other side's partner list of size agents: entry r is the agent
    partnered with r, or None where no agent is."""
    other: list[int | None] = [None] * size
    for a, r in enumerate(partners):
        if r is not None:
            other[r] = a
    return other


class Matching(namedtuple("Matching", "rosters by_category")):
    """Per category, each agent's partner ordinal per side, None when
    unmatched (by_category[c] is {PATIENT: [...], DOCTOR: [...]}), and the
    (patient, doctor) hospital label tuples of the rosters those ordinals
    index (rosters[c]). The mechanisms' lists are stored unchecked;
    from_pairs checks a hand-built matching once.
    """

    __slots__ = ()

    @classmethod
    def from_pairs(cls, rosters: dict, pairs_by_category: dict) -> Matching:
        """The matching of (patient ordinal, doctor ordinal) pairs per
        category. Raises ValueError for a category without rosters or whose
        pairs are not iterable, a pair not a 2-tuple, or an ordinal not an
        int, off the category's rosters or in two pairs.
        """
        by_category = {}
        for category, pairs in pairs_by_category.items():
            unknown = f"matching references unknown agents (category {category}"
            if category not in rosters:
                raise ValueError(f"{unknown} has no rosters)")
            n, m = map(len, rosters[category])
            patient = [None] * n
            try:
                pairs = list(pairs)
            except TypeError:
                raise ValueError(f"{unknown}: its pairs are not iterable)") from None
            for pair in pairs:
                if type(pair) is not tuple or len(pair) != 2:
                    raise ValueError(f"matching references unknown agents (pair {pair!r})")
                i, j = pair
                if not (type(i) is type(j) is int and 0 <= i < n and 0 <= j < m):
                    raise ValueError(
                        f"matching references unknown agents (patient {i!r}, doctor {j!r})"
                    )
                patient[i] = j
            pairs = set(pairs)
            doctor = invert(patient, m)
            # Each pair fills one slot per side unless an ordinal repeats.
            if not len(pairs) == n - patient.count(None) == m - doctor.count(None):
                raise ValueError(
                    f"not a matching: an agent is in two pairs of category {category}"
                )
            by_category[category] = {PATIENT: patient, DOCTOR: doctor}
        return cls(rosters, by_category)

    def pairs(self, category: int) -> frozenset[tuple[AgentId, AgentId]]:
        return frozenset(
            (AgentId(PATIENT, category, i), AgentId(DOCTOR, category, j))
            for i, j in enumerate(self.by_category[category][PATIENT])
            if j is not None
        )

    def partners(self, cm: CategoryMarket) -> dict[str, list[int | None]]:
        """Each agent's partner ordinal in category cm, per side; None when
        unmatched. The dict is the matching's own, shared with every caller,
        and never mutated. Raises ValueError when the matching was computed
        on other rosters.
        """
        # Tuple comparison tries identity first: O(1) for the label tuples
        # that with_prefs copies share with their original.
        if self.rosters.get(cm.category) != (cm.patient_hospitals, cm.doctor_hospitals):
            raise ValueError(
                f"matching references unknown agents: not category {cm.category}'s rosters"
            )
        return self.by_category[cm.category]


def ramhecs_category(
    cm: CategoryMarket, rng: random.Random
) -> tuple[dict[str, list[int | None]], CategoryTrace]:
    """Randomized pairing: random unmatched patient, random available listed doctor.

    A patient's candidates are the free doctors on its list that list it
    too, in its list order; it takes one at a uniformly random index, or
    stays unmatched for good when there is none. When every doctor lists
    every patient and the patient's list is full, the candidates are all
    `left` free doctors: the index is drawn first and the list is scanned
    only up to it, from whichever end is nearer, without rank tables.

    Each draw below a count c is written out as the standard library's
    rejection loop on rng.getrandbits(c.bit_length()), the one draw that
    both rng.randrange(c) and rng.choice of c items make, so the RNG stream
    is theirs.
    """
    n, m = len(cm.patient_hospitals), len(cm.doctor_hospitals)
    prefs = cm.patient_prefs
    getrandbits = rng.getrandbits
    free = bytearray(b"\x01") * m
    is_free = free.__getitem__
    left = m
    # Mutual acceptability: a doctor is only a candidate for patients it lists.
    everyone = all(len(row) == n for row in cm.doctor_prefs)
    doctor_ranks = None if everyone else cm.ranks[DOCTOR]
    active = list(range(n))
    partner: list[int | None] = [None] * n
    while active:
        c = len(active)
        bits = c.bit_length()
        i = getrandbits(bits)
        while i >= c:
            i = getrandbits(bits)
        t = active.pop(i)
        row = prefs[t]
        full = everyone and len(row) == m
        if full:
            c = left
        else:
            candidates = [d for d in row if free[d] and (everyone or doctor_ranks[d][t] < n)]
            c = len(candidates)
        if not c:
            # Exhausted patient: stays permanently unmatched.
            continue
        bits = c.bit_length()
        i = getrandbits(bits)
        while i >= c:
            i = getrandbits(bits)
        if not full:
            d = candidates[i]
        elif 2 * i < c:
            d = next(islice(compress(row, map(is_free, row)), i, None))
        else:
            # A full row holds exactly c free doctors: the i-th from the
            # front is the (c - 1 - i)-th from the back.
            d = next(islice(compress(reversed(row), map(is_free, reversed(row))), c - 1 - i, None))
        partner[t] = d
        free[d] = 0
        left -= 1
    matched = n - partner.count(None)
    trace = CategoryTrace(matched, outer_iterations=n)
    return {PATIENT: partner, DOCTOR: invert(partner, m)}, trace


def tomhecs_category(
    cm: CategoryMarket,
    proposing_side: str = PATIENT,
    events: list[tuple] | None = None,
    *,
    prefs: tuple[tuple[int, ...], ...] | None = None,
) -> tuple[dict[str, list[int | None]], CategoryTrace]:
    """Deferred acceptance within one category, batch proposal order.

    Every free proposer proposes to its most-preferred counterpart not yet
    approached; each counterpart keeps the best proposer it has seen (per
    its own list) and rejects the rest: it keeps its holder's rank, its
    row's width while it holds no one, and takes a proposer ranked lower.
    An unlisted proposer ranks at the width, so is rejected immediately.
    Terminates when no free proposer has a counterpart left to approach.

    Each round is one pass: a proposal meets the receiver's current holder
    at once and the worse of the two is rejected. The last holder within a
    round is the best of the old holder and that round's proposers, so
    pairs, proposals, rejections and rounds are those of resolving all of
    a round's offers at its end (McVitie & Wilson 1971). A rejected
    proposer is queued only while its list has entries left, and the next
    round visits that queue in ascending ordinal order: O(proposals) time
    rather than O(rounds x roster). The proposers' partners are the
    inverse of the receivers' final holders, taken once at the end.

    The counters are set once, at the end, too: proposals is the sum of the
    proposers' list positions reached, and every proposal ends either as a
    final hold or rejected exactly once.

    events, when given, are still emitted as the end-of-round resolution
    emits them: each propose, and any immediate reject, as it is made;
    each receiver's rejects and new hold at the round's end. A proposer
    held and then displaced within one round gets no hold event.

    prefs, when given, are the proposers' lists to run on in place of cm's
    (one valid list per proposer); the receivers still rank by cm's own
    table. The misreport sweep runs each misreport this way.

    Read contract: proposer p's list is read only as prefs[p][next_choice[p]]
    and len(prefs[p]), in order, and never past the entry p ends matched to.
    The misreport sweep relies on it.
    """
    if prefs is None:
        prefs = cm.prefs(proposing_side)
    ranks = cm.ranks[opposite(proposing_side)]
    if events is not None:
        proposers = cm.roster(proposing_side)
        receivers = cm.roster(opposite(proposing_side))

    width = len(prefs)
    next_choice = [0] * width
    holder: list[int | None] = [None] * len(ranks)  # proposer held by receiver
    held_rank = [width] * len(ranks)  # receiver's rank of its holder

    free = [p for p in range(width) if len(prefs[p])]
    rnd = 0
    while free:
        rnd += 1
        rejected = []
        if events is not None:
            # Per receiver, its holder at the round's start and then the
            # round's acceptable offers, for the end-of-round events.
            offers: dict[int, list[int | None]] = {}
        for p in free:
            row = prefs[p]
            i = next_choice[p]
            r = row[i]
            next_choice[p] = i = i + 1
            rank = ranks[r][p]
            if events is not None:
                events.append(("propose", rnd, proposers[p], receivers[r]))
                if rank == width:
                    events.append(("reject", rnd, proposers[p], receivers[r]))
                else:
                    offers.setdefault(r, [holder[r]]).append(p)
            if rank < held_rank[r]:
                h = holder[r]
                holder[r], held_rank[r] = p, rank
                if h is not None and next_choice[h] < len(prefs[h]):
                    rejected.append(h)
            elif i < len(row):
                rejected.append(p)
        if events is not None:
            for r, (start, *offered) in offers.items():
                best = holder[r]
                for c in offered + [start]:
                    if c is not None and c != best:
                        events.append(("reject", rnd, proposers[c], receivers[r]))
                if start != best:
                    events.append(("hold", rnd, proposers[best], receivers[r]))
        rejected.sort()
        free = rejected

    proposals = sum(next_choice)
    matched = len(holder) - holder.count(None)
    trace = CategoryTrace(proposals, proposals - matched, rnd)
    return {proposing_side: invert(holder, len(prefs)), opposite(proposing_side): holder}, trace


def run_categories(
    market: Market,
    mechanism: str,
    proposing_side: str = PATIENT,
    seed: int | str = 0,
    record_trace: bool = False,
) -> tuple[Matching, TraceStats]:
    """Run one mechanism on every category of a market that is already
    known to be valid: generated, perturbed, loaded or checked by a public
    entry point. This loop does not validate.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if proposing_side not in SIDES:
        raise ValueError(f"unknown proposing side {proposing_side!r}")
    rosters, by_category = {}, {}
    stats = TraceStats([], [] if record_trace else None)
    for cm in market.categories:
        if mechanism == RAMHECS:
            rng = random.Random(f"{seed}:ramhecs:{cm.category}")
            partners, trace = ramhecs_category(cm, rng)
        else:
            partners, trace = tomhecs_category(cm, proposing_side, stats.events)
        rosters[cm.category] = (cm.patient_hospitals, cm.doctor_hospitals)
        by_category[cm.category] = partners
        stats.per_category.append(trace)
    return Matching(rosters, by_category), stats


def _validated_run(market: Market, *args, **kwargs) -> tuple[Matching, TraceStats]:
    """The public entry points' path: validate once, then run the loop."""
    violations = validate_market(market)
    if violations:
        raise InvalidMarketError("; ".join(violations))
    return run_categories(market, *args, **kwargs)


def ramhecs(market: Market, seed: int | str = 0) -> tuple[Matching, TraceStats]:
    """Randomized baseline mechanism; deterministic per seed."""
    return _validated_run(market, RAMHECS, seed=seed)


def tomhecs(
    market: Market, proposing_side: str = PATIENT, record_trace: bool = False
) -> tuple[Matching, TraceStats]:
    """Deferred acceptance over every category; deterministic, no randomness."""
    return _validated_run(market, TOMHECS, proposing_side, record_trace=record_trace)

