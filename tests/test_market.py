import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medmatch import (
    Market,
    MarketFormatError,
    PerturbationSpec,
    PreferenceList,
    generate_random_market,
    load_market,
    market_from_rankings,
    perturb_preferences,
    store_market,
    validate_market,
)
from medmatch.market import DOCTOR, FULL, PARTIAL, PATIENT, opposite


def test_reference_market_is_valid(ref_market):
    assert validate_market(ref_market) == []


def test_empty_market_is_valid():
    assert validate_market(Market(())) == []
    assert validate_market(generate_random_market(0, 4, 4, seed=1)) == []


def test_duplicate_entry_is_reported(ref_market):
    cm = ref_market.categories[0]
    plist = cm.patient_prefs[0]
    dup = PreferenceList(plist.owner, plist.ranking[:3] + (plist.ranking[0],))
    broken = dataclasses.replace(
        cm, patient_prefs=(dup,) + cm.patient_prefs[1:]
    )
    violations = validate_market(Market((broken,), FULL))
    assert any("duplicate entry" in v and "p1" in v for v in violations)


def test_short_list_rejected_in_full_mode(ref_market):
    cm = ref_market.categories[0]
    short = PreferenceList(cm.patient_prefs[0].owner, cm.patient_prefs[0].ranking[:2])
    broken = dataclasses.replace(cm, patient_prefs=(short,) + cm.patient_prefs[1:])
    assert validate_market(Market((broken,), FULL))
    # The same lists are fine when the market is declared partial.
    assert validate_market(Market((broken,), PARTIAL)) == []


def test_generator_is_deterministic():
    a = generate_random_market(1, 4, 4, seed=7)
    b = generate_random_market(1, 4, 4, seed=7)
    assert a == b
    c = generate_random_market(1, 4, 4, seed=8)
    assert a != c


def test_generator_category_count_and_shape():
    market = generate_random_market(10, 4, 4, seed=3)
    assert market.mode == FULL
    assert len(market.categories) == 10
    for cm in market.categories:
        assert len(cm.patients) == 4 and len(cm.doctors) == 4
        for plist in cm.patient_prefs + cm.doctor_prefs:
            assert len(plist.ranking) == 4


def test_generator_partial_lists():
    market = generate_random_market(1, 5, 3, list_length=2, seed=11)
    assert market.mode == PARTIAL
    cm = market.categories[0]
    for plist in cm.patient_prefs:
        assert len(plist.ranking) == 2
        assert len(set(plist.ranking)) == 2
        assert all(e.side == DOCTOR for e in plist.ranking)
    for plist in cm.doctor_prefs:
        assert len(plist.ranking) == 2


def test_generator_rejects_oversized_lists():
    with pytest.raises(ValueError):
        generate_random_market(1, 5, 3, list_length=4, seed=0)
    with pytest.raises(ValueError):
        generate_random_market(1, 2, 5, list_length=3, seed=0)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(0, 3),
    n=st.integers(0, 6),
    m=st.integers(0, 6),
    partial=st.booleans(),
    cut=st.integers(0, 6),
    seed=st.integers(0, 10**6),
)
def test_generator_output_always_validates(k, n, m, partial, cut, seed):
    # Partial lists may be shorter than min(n, m); rosters may differ in size.
    length = min(n, m, cut) if partial else None
    market = generate_random_market(k, n, m, list_length=length, seed=seed)
    assert validate_market(market) == []
    for cm in market.categories:
        if not partial:
            for plist in cm.patient_prefs:
                assert set(plist.ranking) == set(cm.doctors)
        for side in (PATIENT, DOCTOR):
            view = cm.views[side]
            counterparts = cm.roster(opposite(side))
            assert len(view.prefs) == len(view.ranks) == len(cm.roster(side))
            for plist, row, ranks in zip(cm.prefs(side), view.prefs, view.ranks):
                assert row == [e.ordinal for e in plist.ranking]
                assert ranks == [
                    plist.ranking.index(c) if c in plist.ranking else None
                    for c in counterparts
                ]


def test_perturbed_category_has_its_own_view(ref_market):
    cm = ref_market.categories[0]
    original = cm.views[PATIENT]
    out = perturb_preferences(ref_market, PerturbationSpec(PATIENT, 1.0, 3)).categories[0]
    assert out.patient_prefs != cm.patient_prefs
    assert out.views[PATIENT] is not original
    for plist, row in zip(out.patient_prefs, out.views[PATIENT].prefs):
        assert row == [e.ordinal for e in plist.ranking]
    assert out.views[PATIENT].prefs != original.prefs
    assert cm.views[PATIENT] is original


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(0, 2),
    n=st.integers(0, 5),
    m=st.integers(0, 5),
    seed=st.integers(0, 10**6),
)
def test_store_load_round_trip(k, n, m, seed):
    market = generate_random_market(k, n, m, seed=seed)
    assert load_market(store_market(market)) == market


def test_round_trip_reference(ref_market):
    blob = store_market(ref_market)
    assert load_market(blob) == ref_market
    # Serialization itself is deterministic.
    assert store_market(load_market(blob)) == blob


def test_load_missing_pref_list_names_agent(ref_market):
    import json

    doc = json.loads(store_market(ref_market))
    del doc["categories"][0]["doctor_prefs"]["d2"]
    with pytest.raises(MarketFormatError) as err:
        load_market(json.dumps(doc))
    assert "d2" in str(err.value)


def test_load_ignores_unknown_fields(ref_market):
    import json

    doc = json.loads(store_market(ref_market))
    doc["annotations"] = {"source": "manual"}
    doc["categories"][0]["flavor"] = "eye surgery"
    assert load_market(json.dumps(doc)) == ref_market


def test_load_rejects_malformed_document():
    with pytest.raises(MarketFormatError):
        load_market(b"not json at all")
    with pytest.raises(MarketFormatError):
        load_market(b'{"mode": "full"}')
    with pytest.raises(MarketFormatError):
        load_market(b'{"mode": "weird", "categories": []}')


def test_hospital_labels_do_not_affect_matching(ref_market):
    from medmatch import tomhecs
    from conftest import REF_DOCTOR_RANKINGS, REF_PATIENT_RANKINGS, labels

    relabeled = market_from_rankings(
        REF_PATIENT_RANKINGS,
        REF_DOCTOR_RANKINGS,
        patient_hospitals=["x", "x", "x", "x"],
        doctor_hospitals=["y", "y", "y", "y"],
    )
    a, _ = tomhecs(ref_market, PATIENT)
    b, _ = tomhecs(relabeled, PATIENT)
    assert labels(a.pairs(0)) == labels(b.pairs(0))
