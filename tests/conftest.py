import pytest

from medmatch import eta_zeta, market_from_rankings

# 4x4 reference market used across the suite. Patient-proposing deferred
# acceptance on it yields {(p1,d3),(p2,d2),(p3,d1),(p4,d4)}.
REF_PATIENT_RANKINGS = [
    [3, 2, 0, 1],  # p1: d4 > d3 > d1 > d2
    [2, 3, 1, 0],  # p2: d3 > d4 > d2 > d1
    [3, 1, 0, 2],  # p3: d4 > d2 > d1 > d3
    [1, 2, 3, 0],  # p4: d2 > d3 > d4 > d1
]
REF_DOCTOR_RANKINGS = [
    [0, 1, 3, 2],  # d1: p1 > p2 > p4 > p3
    [1, 3, 0, 2],  # d2: p2 > p4 > p1 > p3
    [2, 0, 1, 3],  # d3: p3 > p1 > p2 > p4
    [3, 2, 0, 1],  # d4: p4 > p3 > p1 > p2
]


def make_reference_market():
    return market_from_rankings(
        REF_PATIENT_RANKINGS,
        REF_DOCTOR_RANKINGS,
        patient_hospitals=["h2", "h3", "h4", "h1"],
        doctor_hospitals=["H3", "H1", "H4", "H2"],
    )


@pytest.fixture
def ref_market():
    return make_reference_market()


@pytest.fixture
def ref_category(ref_market):
    return ref_market.categories[0]


def labels(pairs):
    """Matching pairs as sorted (patient label, doctor label) tuples."""
    return sorted((p.label, d.label) for p, d in pairs)


def scores(market, matching, side):
    """Per-category eta and zeta dicts of a matching, scored on market's
    lists: one eta_zeta call per category, as the harness makes.
    """
    eta, zeta = {}, {}
    for cm in market.categories:
        eta[cm.category], zeta[cm.category] = eta_zeta(cm, matching.partners(cm), side)
    return eta, zeta
