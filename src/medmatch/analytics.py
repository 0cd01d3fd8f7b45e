"""Monte Carlo estimators for the expectation models.

The estimators simulate the stylized probability models (uniform first-pick
index, independent geometric rejections) and the randomized mechanism's
concrete dynamics; each converges to a known closed form that the tests pin
at three standard errors.

numpy is imported only by `simulate_geometric_rejections`, and the mechanisms
and metrics only by `estimate_total_distance`, each on its first call, so
`analytics lemma4` loads none of them and only `analytics lemma6` loads numpy.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import namedtuple

from .market import PATIENT, _sampler, category_from_rankings


EstimateResult = namedtuple("EstimateResult", "mean trials std_error")


def _check_counts(**counts: int) -> None:
    """Refuse the first of the named counts that is below 1."""
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be >= 1")


def _summarize(samples) -> EstimateResult:
    mean = statistics.fmean(samples)
    se = statistics.stdev(samples) / math.sqrt(len(samples)) if len(samples) > 1 else 0.0
    return EstimateResult(mean, len(samples), se)


def estimate_first_pick_distance(
    n: int, trials: int, seed: int | str = 0
) -> EstimateResult:
    """Sample mean distance of a uniformly random pick from the top of an
    n-entry list; converges to (n-1)/2.
    """
    _check_counts(n=n, trials=trials)
    rng = random.Random(f"{seed}:first-pick")
    samples = [rng.randrange(n) for _ in range(trials)]
    return _summarize(samples)


def estimate_total_distance(n: int, trials: int, seed: int | str = 0) -> EstimateResult:
    """Sample mean of the total original-list distance over all n patients;
    converges to lemma 5's n(n-1)/2.

    Runs ramhecs_category (random patient order, random still-available
    listed doctor) on random full balanced preference profiles, scoring
    each patient by its partner's index on its original list.
    """
    _check_counts(n=n, trials=trials)
    from .mechanisms import ramhecs_category
    from .metrics import partner_ranks

    rng = random.Random(f"{seed}:total-distance")
    sample = _sampler(rng)
    samples = []
    doctors = list(range(n))
    for _ in range(trials):
        prefs = [sample(doctors, n) for _ in range(n)]
        # Every doctor lists every patient, so only the patients' lists
        # constrain the mechanism, which continues the same RNG stream and
        # matches every patient.
        cm = category_from_rankings(0, prefs, [doctors] * n)
        partners, _ = ramhecs_category(cm, rng)
        samples.append(sum(partner_ranks(cm, partners, PATIENT)))
    return _summarize(samples)


def simulate_geometric_rejections(
    p: float,
    horizon: int,
    trials: int,
    seed: int = 0,
    agents: int = 1,
) -> EstimateResult:
    """Independent-rejection model: each agent accrues sum over k < horizon of
    Bernoulli(p^k) rejections; the trial value is the total over all agents.

    For one agent the mean converges to the geometric series sum, i.e.
    1/(1-p) as horizon grows; for n agents to n/(1-p).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"rejection probability {p} outside [0, 1)")
    _check_counts(horizon=horizon, trials=trials, agents=agents)
    import numpy as np

    rng = np.random.default_rng(seed)
    powers = p ** np.arange(horizon)
    totals = np.empty(trials)
    chunk = max(1, (1 << 22) // (agents * horizon))
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        draws = rng.random((count, agents, horizon)) < powers
        totals[start : start + count] = draws.sum(axis=(1, 2))
    mean = float(totals.mean())
    se = float(totals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return EstimateResult(mean, trials, se)
