"""Evaluation metrics: satisfaction level (eta) and first-choice count (zeta).

eta sums, over the measured side's agents, the 0-based rank gap between the
assigned counterpart and the top of the agent's own list; lower is better.
zeta counts the agents whose assigned counterpart is their first choice.
Both are computed per category and aggregated over all categories.
"""

from __future__ import annotations

from dataclasses import dataclass

from .market import DOCTOR, PATIENT, CategoryMarket, Market, opposite
from .mechanisms import Matching


@dataclass
class MetricsReport:
    side: str
    eta_by_category: dict[int, int]
    zeta_by_category: dict[int, int]

    @property
    def eta(self) -> int:
        return sum(self.eta_by_category.values())

    @property
    def zeta(self) -> int:
        return sum(self.zeta_by_category.values())


def partner_ranks(
    cm: CategoryMarket, partners: dict[str, list[int | None]], side: str
) -> list[int]:
    """Each `side` agent's 0-based rank of its partner on its own list.

    partners is Matching.partners(cm). Being unmatched scores the list
    length: one worse than the last choice. Raises ValueError for a partner
    the agent does not list.
    """
    scores = []
    for agent, (partner, row, ranks) in enumerate(
        zip(partners[side], cm.prefs(side), cm.ranks[side])
    ):
        if partner is None:
            scores.append(len(row))
        elif ranks[partner] is None:
            counterpart = cm.roster(opposite(side))[partner]
            raise ValueError(
                f"{cm.roster(side)[agent]!r} matched to {counterpart!r} absent from its list"
            )
        else:
            scores.append(ranks[partner])
    return scores


def satisfaction_level(
    market: Market, matching: Matching, side: str
) -> tuple[dict[int, int], int]:
    """Per-category eta and the aggregate over all categories.

    An unmatched agent contributes its full list length: one worse than its
    last-ranked choice.
    """
    per_category = {
        cm.category: sum(partner_ranks(cm, matching.partners(cm), side))
        for cm in market.categories
    }
    return per_category, sum(per_category.values())


def preferable_allocation_count(
    market: Market, matching: Matching, side: str
) -> tuple[dict[int, int], int]:
    """Per-category zeta (first-choice allocations) and the aggregate."""
    per_category = {}
    for cm in market.categories:
        scores = partner_ranks(cm, matching.partners(cm), side)
        # Score 0 is a first choice only on a non-empty list: an unmatched
        # agent with an empty list scores 0 as well.
        per_category[cm.category] = sum(
            score == 0 < len(row) for score, row in zip(scores, cm.prefs(side))
        )
    return per_category, sum(per_category.values())


def metrics_report(market: Market, matching: Matching, side: str) -> MetricsReport:
    if side not in (PATIENT, DOCTOR):
        raise ValueError(f"unknown side {side!r}")
    eta_by_category, _ = satisfaction_level(market, matching, side)
    zeta_by_category, _ = preferable_allocation_count(market, matching, side)
    return MetricsReport(side, eta_by_category, zeta_by_category)
