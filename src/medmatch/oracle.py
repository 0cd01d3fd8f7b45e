"""Executable stability/optimality/truthfulness checks and brute-force oracles.

The enumeration and misreport sweeps are factorial-time by design; they
exist to cross-check the mechanisms on small instances and are guarded
accordingly.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from itertools import permutations

from .market import DOCTOR, PATIENT, SIDES, AgentId, CategoryMarket, opposite
from .mechanisms import Matching, tomhecs_category
from .metrics import partner_ranks

ENUMERATION_LIMIT = 8
MISREPORT_LIMIT = 5


@dataclass(frozen=True)
class BlockingPair:
    patient: AgentId
    doctor: AgentId


@dataclass
class TruthfulnessReport:
    proposer: AgentId
    misreports_tried: int
    # (misreport ranking, truthful assignment, improved assignment)
    violations: list[tuple[tuple[AgentId, ...], AgentId | None, AgentId]]


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
    return [
        BlockingPair(cm.patients[p], cm.doctors[d])
        for p, d in _blocking_ordinals(cm, matching.partners(cm))
    ]


def is_stable(cm: CategoryMarket, matching: Matching) -> bool:
    return not find_blocking_pairs(cm, matching)


def is_perfect(cm: CategoryMarket, matching: Matching) -> bool:
    count = matching.matched_count(cm.category)
    return count == len(cm.patients) == len(cm.doctors)


def enumerate_stable_matchings(cm: CategoryMarket) -> list[Matching]:
    """Brute-force enumeration of every stable matching of one category.

    Enumerates maximal mutually-acceptable matchings recursively and keeps
    exactly those with no blocking pair, in a deterministic canonical
    order. Guarded to rosters of at most ENUMERATION_LIMIT agents.
    """
    n, m = len(cm.patients), len(cm.doctors)
    if max(n, m) > ENUMERATION_LIMIT:
        raise ValueError(
            f"instance too large: max roster {max(n, m)} > {ENUMERATION_LIMIT}"
        )
    doctor_ranks = cm.ranks[DOCTOR]
    mutual = [
        sorted(d for d in row if doctor_ranks[d][p] is not None)
        for p, row in enumerate(cm.patient_prefs)
    ]
    # Grown patient by patient; -1 marks an unmatched patient.
    current: list[int] = []
    doctor_of: list[int | None] = [None] * m
    assignments: list[tuple[int, ...]] = []

    def recurse(p: int) -> None:
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
            if not any(_blocking_ordinals(cm, partners)):
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
    assignments.sort()
    result = []
    for assignment in assignments:
        pairs = frozenset(
            (cm.patients[p], cm.doctors[d])
            for p, d in enumerate(assignment)
            if d != -1
        )
        result.append(Matching({cm.category: pairs}))
    return result


def check_requesting_party_optimal(
    cm: CategoryMarket, matching: Matching, proposing_side: str
) -> bool:
    """True iff every proposer weakly prefers this matching to every stable one."""
    stable = enumerate_stable_matchings(cm)
    ours = partner_ranks(cm, matching.partners(cm), proposing_side)
    return all(
        mine <= theirs
        for other in stable
        for mine, theirs in zip(ours, partner_ranks(cm, other.partners(cm), proposing_side))
    )


def check_truthfulness_exhaustive(
    cm: CategoryMarket, proposing_side: str
) -> list[TruthfulnessReport]:
    """Sweep every single-proposer misreport (all permutations of the opposite
    roster) and record any strict improvement under the TRUE preferences.
    """
    counterparts = cm.roster(opposite(proposing_side))
    proposers = cm.roster(proposing_side)
    prefs = cm.prefs(proposing_side)
    if len(counterparts) > MISREPORT_LIMIT:
        raise ValueError(
            f"instance too large: opposite roster {len(counterparts)} > {MISREPORT_LIMIT}"
        )
    if any(None in ranks for side in SIDES for ranks in cm.ranks[side]):
        raise ValueError("misreport sweep requires full preference lists")

    def outcome(category: CategoryMarket) -> dict[str, list[int | None]]:
        pairs, _ = tomhecs_category(category, proposing_side)
        return Matching({cm.category: pairs}).partners(cm)

    truthful = outcome(cm)
    # Every outcome is scored on cm, the TRUE preferences.
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
            lists = prefs[:idx] + (perm,) + prefs[idx + 1 :]
            if proposing_side == PATIENT:
                altered = replace(cm, patient_prefs=lists)
            else:
                altered = replace(cm, doctor_prefs=lists)
            partners = outcome(altered)
            if partner_ranks(cm, partners, proposing_side)[idx] < truthful_scores[idx]:
                misreport = tuple(counterparts[e] for e in perm)
                new_partner = counterparts[partners[proposing_side][idx]]
                violations.append((misreport, truthful_partner, new_partner))
        reports.append(TruthfulnessReport(agent, tried, violations))
    return reports
