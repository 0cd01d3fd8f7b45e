"""Executable stability/optimality/truthfulness checks and their oracles.

The blocking-pair scan is quadratic. Optimality is one comparison with the
proposer-optimal matching, at any roster size. Stable matchings are
enumerated by rotation elimination over the lattice, in time polynomial per
matching found, for rosters of at most ENUMERATION_LIMIT agents; no `match
check` runs it. The misreport sweep tries every permutation of a list,
factorial-time by design, and is guarded to MISREPORT_LIMIT; it runs the
mechanism once per read prefix, not once per permutation. A guard that
declines an instance raises CheckRefused.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import permutations

from .market import DOCTOR, PATIENT, SIDES, CategoryMarket, CheckRefused, opposite
from .mechanisms import Matching, invert, tomhecs_category
from .metrics import partner_ranks

ENUMERATION_LIMIT = 8
MISREPORT_LIMIT = 5


# Two AgentIds; equal to the (patient, doctor) tuple, as a pair of
# Matching.pairs is.
BlockingPair = namedtuple("BlockingPair", "patient doctor")
# violations holds (misreport ranking, truthful assignment, improved
# assignment) tuples of AgentIds; the truthful assignment may be None.
TruthfulnessReport = namedtuple("TruthfulnessReport", "proposer misreports_tried violations")


def _blocking_ordinals(
    cm: CategoryMarket, partners: dict[str, list[int | None]]
) -> Iterator[tuple[int, int]]:
    """(patient, doctor) ordinals of every blocking pair, in patient ordinal
    then patient preference order."""
    doctor_scores = partner_ranks(cm, partners, DOCTOR)
    doctor_ranks = cm.ranks[DOCTOR]
    patient_prefs = cm.patient_prefs
    for p, cutoff in enumerate(partner_ranks(cm, partners, PATIENT)):
        # Only doctors strictly above the current assignment can block.
        for d in patient_prefs[p][:cutoff]:
            rank = doctor_ranks[d][p]
            if rank is not None and rank < doctor_scores[d]:
                yield p, d


def find_blocking_pairs(cm: CategoryMarket, matching: Matching) -> list[BlockingPair]:
    """All mutually acceptable pairs that each strictly prefer one another.

    Being unmatched ranks below every listed counterpart. Pairs are
    returned in (patient ordinal, patient's preference rank) order.
    """
    blocking = list(_blocking_ordinals(cm, matching.partners(cm)))
    if not blocking:
        return []
    patients, doctors = cm.roster(PATIENT), cm.roster(DOCTOR)
    return [BlockingPair(patients[p], doctors[d]) for p, d in blocking]


def is_stable(cm: CategoryMarket, matching: Matching) -> bool:
    return not any(_blocking_ordinals(cm, matching.partners(cm)))


def _gale_shapley(cm: CategoryMarket, proposing_side: str) -> dict[str, list[int | None]]:
    """Proposer-optimal stable matching by sequential deferred acceptance:
    one free proposer at a time proposes down its list. Returns each agent's
    partner ordinal per side, None when unmatched: the form of a mechanism's
    result and of Matching.partners.

    Kept apart from tomhecs_category, so that the optimality verdict and the
    lattice the oracle walks never come from the mechanism it checks.
    """
    receiving = opposite(proposing_side)
    prefs = cm.prefs(proposing_side)
    ranks = cm.ranks[receiving]
    holder: list[int | None] = [None] * len(ranks)
    next_choice = [0] * len(prefs)
    free = list(range(len(prefs)))
    while free:
        p = free.pop()
        row = prefs[p]
        while next_choice[p] < len(row):
            r = row[next_choice[p]]
            next_choice[p] += 1
            rank = ranks[r][p]
            if rank is None:
                continue
            held = holder[r]
            if held is None or rank < ranks[r][held]:
                holder[r] = p
                if held is not None:
                    free.append(held)
                break
    return {proposing_side: invert(holder, len(prefs)), receiving: holder}


def enumerate_stable_matchings(cm: CategoryMarket) -> list[Matching]:
    """Every stable matching of one category, by a walk over the lattice of
    stable matchings (Irving & Leather 1986; Gusfield 1987).

    The walk starts at the patient-optimal matching and eliminates every
    exposed rotation of each matching it reaches, until no patient can move
    further towards its doctor-optimal partner. Matchings come sorted by
    their patient assignment tuples (a doctor ordinal or None per patient),
    not in lattice order. Guarded to rosters of at most ENUMERATION_LIMIT
    agents.
    """
    n, m = len(cm.patient_hospitals), len(cm.doctor_hospitals)
    if max(n, m) > ENUMERATION_LIMIT:
        raise CheckRefused(
            f"instance too large: max roster {max(n, m)} > {ENUMERATION_LIMIT}"
        )
    patient_prefs = cm.patient_prefs
    doctor_ranks = cm.ranks[DOCTOR]
    top, bottom = (_gale_shapley(cm, side)[PATIENT] for side in (PATIENT, DOCTOR))
    seen = {tuple(top)}
    stack = [tuple(top)]
    while stack:
        assignment = stack.pop()
        holder = invert(assignment, m)
        # s(p): the first doctor below p's partner that would take p over
        # its own partner. Unmatched doctors are skipped: by the
        # rural-hospitals theorem no stable matching matches them.
        successor = {}
        for p, d in enumerate(assignment):
            if d is None or d == bottom[p]:
                continue
            row = patient_prefs[p]
            for e in row[row.index(d) + 1 :]:
                q = holder[e]
                rank = doctor_ranks[e][p]
                if q is not None and rank is not None and rank < doctor_ranks[e][q]:
                    successor[p] = e
                    break
        # Each cycle of p -> holder[s(p)] is an exposed rotation; moving
        # every patient on it to s(p) yields another stable matching.
        walked: dict[int, int] = {}
        for origin in successor:
            path = []
            p = origin
            while p in successor and p not in walked:
                walked[p] = origin
                path.append(p)
                p = holder[successor[p]]
            if walked.get(p) != origin:
                continue
            moved = list(assignment)
            for q in path[path.index(p) :]:
                moved[q] = successor[q]
            reached = tuple(moved)
            if reached not in seen:
                seen.add(reached)
                stack.append(reached)
    rosters = {cm.category: (cm.patient_hospitals, cm.doctor_hospitals)}
    # Every stable matching leaves the same patients unmatched (Roth 1986),
    # so the sort never compares None with an ordinal.
    return [
        Matching(rosters, {cm.category: {PATIENT: list(a), DOCTOR: invert(a, m)}})
        for a in sorted(seen)
    ]


def check_requesting_party_optimal(
    cm: CategoryMarket, matching: Matching, proposing_side: str
) -> bool:
    """True iff every proposer weakly prefers this matching to every stable
    one: to the proposer-optimal one, which gives every proposer its best
    stable partner (Gale & Shapley 1962)."""
    best = partner_ranks(cm, _gale_shapley(cm, proposing_side), proposing_side)
    ours = partner_ranks(cm, matching.partners(cm), proposing_side)
    return all(mine <= theirs for mine, theirs in zip(ours, best))


def check_truthfulness_exhaustive(
    cm: CategoryMarket, proposing_side: str
) -> list[TruthfulnessReport]:
    """Sweep every single-proposer misreport (all permutations of the opposite
    roster) and record any strict improvement under the TRUE preferences.

    A misreport runs tomhecs_category on the proposers' lists with one
    list swapped, against cm's true receiver table; only the misreporting
    proposer's partner is read from the result, and scored by its position
    on the proposer's true list. The receivers' table is the only one built.

    Deferred acceptance reads a proposer's list strictly in order and never
    past its final partner, the last entry it proposed to (McVitie & Wilson
    1971). So the run on a misreport decides the outcome of every misreport
    that starts with its read prefix: the list up to and including that
    partner, or the whole list when the proposer ends unmatched. The
    permutations come in lexicographic order and each one that does not
    start with the last run's read prefix runs the mechanism; the others
    take the last run's partner.
    """
    width = len(cm.hospitals(opposite(proposing_side)))
    if width > MISREPORT_LIMIT:
        raise CheckRefused(f"instance too large: opposite roster {width} > {MISREPORT_LIMIT}")
    if any(
        len(row) != len(cm.hospitals(opposite(side)))
        for side in SIDES
        for row in cm.prefs(side)
    ):
        raise CheckRefused("misreport sweep requires full preference lists")
    counterparts = cm.roster(opposite(proposing_side))
    proposers = cm.roster(proposing_side)
    prefs = cm.prefs(proposing_side)
    truthful = tomhecs_category(cm, proposing_side)[0]
    # Scored on the TRUE lists; being unmatched scores the list length.
    truthful_scores = partner_ranks(cm, truthful, proposing_side)
    reports = []
    for idx, (agent, row) in enumerate(zip(proposers, prefs)):
        partner = truthful[proposing_side][idx]
        truthful_partner = None if partner is None else counterparts[partner]
        before, after = prefs[:idx], prefs[idx + 1 :]
        violations = []
        tried = 0
        read = None  # the read prefix of the last run on this proposer's list
        for perm in permutations(range(width)):
            if perm == row:
                continue
            tried += 1
            if read is None or perm[: len(read)] != read:
                partners, _ = tomhecs_category(cm, proposing_side, prefs=before + (perm,) + after)
                new_partner = partners[proposing_side][idx]
                read = perm if new_partner is None else perm[: perm.index(new_partner) + 1]
            if new_partner is not None and row.index(new_partner) < truthful_scores[idx]:
                misreport = tuple(counterparts[e] for e in perm)
                violations.append((misreport, truthful_partner, counterparts[new_partner]))
        reports.append(TruthfulnessReport(agent, tried, violations))
    return reports
