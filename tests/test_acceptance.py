"""Acceptance suite: one test (and one printed pass line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math
import random
import statistics
import time

import pytest

from conftest import labels, make_reference_market
from medmatch import (
    check_requesting_party_optimal,
    check_truthfulness_exhaustive,
    enumerate_stable_matchings,
    estimate_first_pick_distance,
    estimate_total_distance,
    find_blocking_pairs,
    generate_random_market,
    load_market,
    ramhecs,
    simulate_geometric_rejections,
    store_market,
    tomhecs,
)
from medmatch.harness import ExperimentConfig, run_experiment, rows_to_csv
from medmatch.market import DOCTOR, PATIENT


def report(number, text):
    print(f"PASS criterion {number}: {text}")


@pytest.fixture(scope="module")
def stability_sweep():
    """10,000 random markets spanning k in {1,10}, n,m in 2..64, full and
    partial lists, both proposing sides. Shared by criteria 2 and 5.
    """
    rng = random.Random("acceptance:sweep")
    blocking_found = 0
    proposal_bound_ok = True
    checked = 0
    start = time.perf_counter()
    for i in range(10_000):
        if i % 10 == 0:
            k = 10
            n, m = rng.randint(2, 16), rng.randint(2, 16)
        else:
            k = 1
            n, m = rng.randint(2, 64), rng.randint(2, 64)
        partial = i % 2 == 1
        length = rng.randint(1, min(n, m)) if partial else None
        side = PATIENT if i % 4 < 2 else DOCTOR
        market = generate_random_market(k, n, m, length, seed=f"sweep:{i}")
        matching, stats = tomhecs(market, side)
        for cm in market.categories:
            if find_blocking_pairs(cm, matching):
                blocking_found += 1
        if sum(t.proposals for t in stats.per_category) > k * n * m:
            proposal_bound_ok = False
        checked += 1
    return {
        "checked": checked,
        "blocking_found": blocking_found,
        "proposal_bound_ok": proposal_bound_ok,
        "elapsed": time.perf_counter() - start,
    }


def test_c01_worked_example_fidelity():
    market = make_reference_market()
    expected = [("p1", "d3"), ("p2", "d2"), ("p3", "d1"), ("p4", "d4")]

    matching, stats = tomhecs(market, PATIENT, record_trace=True)
    round_one = [(k, p.label, d.label) for k, r, p, d in stats.events if r == 1]
    assert ("propose", "p1", "d4") in round_one
    assert ("propose", "p3", "d4") in round_one
    assert ("reject", "p1", "d4") in round_one
    assert ("hold", "p3", "d4") in round_one
    assert labels(matching.pairs(0)) == expected

    # Brute-force cross-check: the outcome is the patient-optimal stable matching.
    cm = market.categories[0]
    stable = enumerate_stable_matchings(cm)
    optimal = [s for s in stable if check_requesting_party_optimal(cm, s, PATIENT)]
    assert len(optimal) == 1
    assert labels(optimal[0].pairs(0)) == expected

    best = min(
        _timed(lambda: tomhecs(market, PATIENT)) for _ in range(20)
    )
    assert best < 1e-3, f"best run took {best * 1e3:.3f} ms"
    report(1, f"worked example reproduced; fastest run {best * 1e6:.0f} us")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_c02_stability_sweep(stability_sweep):
    assert stability_sweep["checked"] >= 10_000
    assert stability_sweep["blocking_found"] == 0
    assert stability_sweep["elapsed"] < 120, stability_sweep["elapsed"]
    report(
        2,
        f"0 blocking pairs in {stability_sweep['checked']} random markets "
        f"({stability_sweep['elapsed']:.1f}s)",
    )


def test_c03_proposer_optimality():
    rng = random.Random("acceptance:optimality")
    start = time.perf_counter()
    for i in range(1000):
        n = rng.randint(2, 6)
        market = generate_random_market(1, n, n, seed=f"opt:{i}")
        side = PATIENT if i % 2 == 0 else DOCTOR
        matching, _ = tomhecs(market, side)
        assert check_requesting_party_optimal(market.categories[0], matching, side)
    elapsed = time.perf_counter() - start
    assert elapsed < 120, elapsed
    report(3, f"proposer-optimal on 1000/1000 markets with n=m<=6 ({elapsed:.1f}s)")


def test_c04_truthfulness_sweep():
    start = time.perf_counter()
    swept = 0
    for i in range(200):
        market = generate_random_market(1, 4, 4, seed=f"truth:{i}")
        side = PATIENT if i % 2 == 0 else DOCTOR
        reports = check_truthfulness_exhaustive(market.categories[0], side)
        assert len(reports) == 4
        for r in reports:
            assert r.misreports_tried == 23
            assert r.violations == []
            swept += r.misreports_tried
    elapsed = time.perf_counter() - start
    assert elapsed < 300, elapsed
    report(4, f"{swept} misreports, zero strict improvements ({elapsed:.1f}s)")


def test_c05_complexity_bounds(stability_sweep):
    assert stability_sweep["proposal_bound_ok"]
    rng = random.Random("acceptance:complexity")
    for i in range(200):
        n = rng.randint(2, 32)
        m = n if i % 2 == 0 else rng.randint(2, 32)
        market = generate_random_market(1, n, m, seed=f"cx:{i}")
        matching, stats = ramhecs(market, seed=i)
        assert len(matching.pairs(0)) == min(n, m)
        (trace,) = stats.per_category
        assert trace.proposals == min(n, m)
    report(5, "proposals <= k*n*m everywhere; randomized pairing count = min(n,m)")


def test_c06_first_pick_distance():
    result = estimate_first_pick_distance(100, trials=100_000, seed=2026)
    assert abs(result.mean - 49.5) <= 3 * result.std_error
    report(
        6,
        f"mean first-pick distance {result.mean:.3f} ~ 49.5 "
        f"(3se = {3 * result.std_error:.3f})",
    )


def test_c07_total_distance_bound():
    result = estimate_total_distance(32, trials=10_000, seed=2026)
    assert result.mean >= 32 * 32 / 16
    report(7, f"mean total distance {result.mean:.1f} >= 64 (n^2/16 bound)")


@pytest.mark.parametrize("n", [3, 8])
def test_c07_total_distance_exact_mean(n):
    # Each patient's list is a uniform permutation drawn apart from which
    # doctors are still free, so the doctor it takes sits at a uniform
    # position of its list: mean (n-1)/2 per patient, n(n-1)/2 in total.
    result = estimate_total_distance(n, trials=20_000, seed=2026)
    exact = n * (n - 1) / 2
    assert abs(result.mean - exact) <= 3 * result.std_error, (result.mean, result.std_error)
    report(
        7,
        f"n={n}: mean total distance {result.mean:.3f} ~ {exact} "
        f"(3se = {3 * result.std_error:.3f})",
    )


def test_c08_geometric_rejections():
    checks = [
        (0.5, 64, 1, 2.0),
        (2 / 3, 64, 1, 3.0),
        (0.9, 512, 1, 10.0),
    ]
    for p, horizon, agents, target in checks:
        result = simulate_geometric_rejections(p, horizon, 100_000, seed=2026, agents=agents)
        assert abs(result.mean - target) <= 3 * result.std_error, (p, result.mean)
    n = 64
    total = simulate_geometric_rejections(0.5, n, 100_000, seed=2027, agents=n)
    assert abs(total.mean - 2 * n) <= 3 * total.std_error
    report(8, f"E[Y] ~ 2, 3, 10 and n-agent total {total.mean:.2f} ~ {2 * n}")


def _per_rep_aggregates(rows, mechanism, preset):
    by_rep = {}
    for row in rows:
        if row.mechanism == mechanism and row.preset == preset:
            eta, zeta = by_rep.get(row.rep, (0, 0))
            by_rep[row.rep] = (eta + row.eta, zeta + row.zeta)
    reps = sorted(by_rep)
    return (
        [by_rep[r][0] for r in reps],
        [by_rep[r][1] for r in reps],
    )


def _paired_shift(before, after):
    """Mean difference and its standard error over paired repetitions."""
    diffs = [b - a for a, b in zip(before, after)]
    mean = statistics.fmean(diffs)
    sem = statistics.stdev(diffs) / math.sqrt(len(diffs))
    return mean, sem


def test_c09_experiment_orderings():
    start = time.perf_counter()
    config = ExperimentConfig(
        k=10,
        n_patients=20,
        n_doctors=20,
        mechanisms=("ramhecs", "tomhecs"),
        presets=("none", "small", "medium", "large"),
        measured_sides=(PATIENT,),
        repetitions=100,
        seed="acceptance:orderings",
    )
    rows = run_experiment(config).rows

    _, zeta_t = _per_rep_aggregates(rows, "tomhecs", "none")
    _, zeta_r = _per_rep_aggregates(rows, "ramhecs", "none")
    assert statistics.fmean(zeta_t) > statistics.fmean(zeta_r)

    presets = ("none", "small", "medium", "large")
    series = {p: _per_rep_aggregates(rows, "tomhecs", p) for p in presets}
    for prev, nxt in zip(presets, presets[1:]):
        eta_shift, eta_sem = _paired_shift(series[prev][0], series[nxt][0])
        assert eta_shift > 2 * eta_sem, (prev, nxt, eta_shift, eta_sem)
        zeta_shift, zeta_sem = _paired_shift(series[nxt][1], series[prev][1])
        assert zeta_shift > 2 * zeta_sem, (prev, nxt, zeta_shift, zeta_sem)
    elapsed = time.perf_counter() - start
    assert elapsed < 300, elapsed
    report(
        9,
        "zeta(tomhecs) > zeta(ramhecs); eta and zeta degrade monotonically "
        f"none->small->medium->large at 2 sigma ({elapsed:.1f}s)",
    )


def test_c10_determinism(tmp_path):
    market_a = generate_random_market(3, 8, 6, list_length=4, seed="det")
    market_b = generate_random_market(3, 8, 6, list_length=4, seed="det")
    assert market_a == market_b
    assert store_market(market_a) == store_market(market_b)
    assert load_market(store_market(market_a)) == market_a

    assert ramhecs(market_a, seed=5)[0] == ramhecs(market_b, seed=5)[0]
    assert tomhecs(market_a, PATIENT)[0] == tomhecs(market_b, PATIENT)[0]

    config = ExperimentConfig(
        k=2,
        n_patients=5,
        n_doctors=5,
        mechanisms=("ramhecs", "tomhecs"),
        presets=("none", "medium"),
        repetitions=3,
        seed=17,
    )
    csv_a = rows_to_csv(run_experiment(config).rows)
    csv_b = rows_to_csv(run_experiment(config).rows)
    assert csv_a.encode() == csv_b.encode()
    report(10, "seeded entry points byte-identical; JSON round trip exact")
