"""Evaluation metrics: satisfaction level (eta) and first-choice count (zeta).

eta sums, over the measured side's agents, the 0-based rank gap between the
assigned counterpart and the top of the agent's own list; lower is better.
zeta counts the agents whose assigned counterpart is their first choice.
Both are computed per category, from the same partner ranks.
"""

from __future__ import annotations

from .market import CategoryMarket, opposite


def partner_ranks(
    cm: CategoryMarket, partners: dict[str, list[int | None]], side: str
) -> list[int]:
    """Each `side` agent's 0-based rank of its partner on its own list.

    partners is a mechanism's result or Matching.partners(cm). A rank is
    the partner's position on the list, so no rank table is built. Being
    unmatched scores the list length: one worse than the last choice.
    Raises ValueError for a partner the agent does not list.
    """
    lists = cm.prefs(side)
    try:
        return [
            len(row) if partner is None else row.index(partner)
            for partner, row in zip(partners[side], lists)
        ]
    except ValueError:
        agent, partner = next(
            (a, partner)
            for a, (partner, row) in enumerate(zip(partners[side], lists))
            if partner is not None and partner not in row
        )
        counterpart = cm.roster(opposite(side))[partner]
        raise ValueError(
            f"{cm.roster(side)[agent]!r} matched to {counterpart!r} absent from its list"
        ) from None


def eta_zeta(
    cm: CategoryMarket, partners: dict[str, list[int | None]], side: str
) -> tuple[int, int]:
    """The `side` agents' eta and zeta in one category.

    partners is as in partner_ranks. An unmatched agent contributes its
    full list length to eta: one worse than its last-ranked choice.
    """
    scores = partner_ranks(cm, partners, side)
    # An agent with an empty list is always unmatched and scores 0, but has
    # no first choice.
    return sum(scores), scores.count(0) - cm.prefs(side).count(())
