import gc
import json
import math
import pickle
import random
import re
import tracemalloc
import weakref
from array import array
from copy import deepcopy
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medmatch import (
    InvalidMarketError,
    Market,
    MarketFormatError,
    generate_random_market,
    load_market,
    market_from_rankings,
    perturb_preferences,
    ramhecs,
    store_market,
    tomhecs,
    validate_market,
)
from medmatch.market import (
    DOCTOR,
    FULL,
    MODES,
    PARTIAL,
    PATIENT,
    SIDES,
    AgentId,
    CategoryMarket,
    _RankTables,
    category_from_rankings,
    _sampler,
    opposite,
)
from medmatch.cli import main
from medmatch.harness import ExperimentConfig, run_experiment
from medmatch.mechanisms import (
    RAMHECS,
    TOMHECS,
    CategoryTrace,
    Matching,
    ramhecs_category,
    run_categories,
    tomhecs_category,
)
from medmatch.metrics import eta_zeta
from medmatch.oracle import (
    _gale_shapley,
    check_truthfulness_exhaustive,
    enumerate_stable_matchings,
    find_blocking_pairs,
    is_stable,
)
from conftest import REF_DOCTOR_RANKINGS, REF_PATIENT_RANKINGS
from test_oracle import reference_truthfulness_sweep


CATEGORY_FIELDS = (
    "category", "patient_hospitals", "doctor_hospitals", "patient_prefs", "doctor_prefs"
)


def edit(cm, **changes):
    """A new CategoryMarket with cm's fields, but for those in changes."""
    return CategoryMarket(**{**{name: getattr(cm, name) for name in CATEGORY_FIELDS}, **changes})


def test_reference_market_is_valid(ref_market):
    assert validate_market(ref_market) == []


def test_empty_market_is_valid():
    assert validate_market(Market(())) == []
    assert validate_market(generate_random_market(0, 4, 4, seed=1)) == []


def test_duplicate_entry_is_reported(ref_market):
    cm = ref_market.categories[0]
    row = cm.patient_prefs[0]
    dup = row[:3] + (row[0],)
    broken = edit(
        cm, patient_prefs=(dup,) + cm.patient_prefs[1:]
    )
    violations = validate_market(Market((broken,), FULL))
    assert any("duplicate entry" in v and "p1" in v for v in violations)


@pytest.mark.parametrize(
    "bad", [(-1, 2, 0, 1), (4, 2, 0, 1), ("d1", 2, 0, 1), (1.5, 2, 0, 1), None], ids=repr
)
def test_malformed_preference_list_is_rejected(ref_market, bad):
    # p1's list is (3, 2, 0, 1). 4 is len(roster): one past the last doctor.
    # A negative ordinal would otherwise index from the end of a rank table.
    cm = ref_market.categories[0]
    market = Market((edit(cm, patient_prefs=(bad,) + cm.patient_prefs[1:]),))
    violations = validate_market(market)
    assert any(v.startswith("<p1@c0>: ") for v in violations), violations
    for run in (
        lambda: tomhecs(market),
        lambda: ramhecs(market),
    ):
        with pytest.raises(InvalidMarketError, match="<p1@c0>"):
            run()


@pytest.mark.parametrize("index", [True, 1.0], ids=repr)
def test_category_index_must_be_an_int(index):
    # Both equal 1, the position they sit at, yet neither is an index.
    first, second = generate_random_market(2, 3, 3, seed=1).categories
    market = Market((first, edit(second, category=index)))
    assert validate_market(market) == [
        f"category index {index} at position 1: indices must be contiguous from 0"
    ]
    with pytest.raises(InvalidMarketError, match="category index"):
        tomhecs(market)


@pytest.mark.parametrize("build", [market_from_rankings, category_from_rankings])
@pytest.mark.parametrize("side", [PATIENT, DOCTOR])
@pytest.mark.parametrize("count", [3, 5])
def test_hospital_list_must_fit_its_rankings(build, side, count):
    args = (REF_PATIENT_RANKINGS, REF_DOCTOR_RANKINGS)
    if build is category_from_rankings:
        args = (0,) + args
    hospitals = [f"x{i}" for i in range(count)]
    with pytest.raises(ValueError, match=f"^{count} {side} hospitals for 4 {side} rankings$"):
        build(*args, **{f"{side}_hospitals": hospitals})


@pytest.mark.parametrize("side", [PATIENT, DOCTOR])
@pytest.mark.parametrize("label", [1, None, b"h1"], ids=repr)
def test_builders_refuse_a_hospital_label_that_is_not_a_str(side, label):
    hospitals = ["x0", "x1", label, "x3"]
    message = f"^category 0: {side} hospital label {label!r} at position 2 is not a str$"
    with pytest.raises(ValueError, match=message):
        market_from_rankings(
            REF_PATIENT_RANKINGS, REF_DOCTOR_RANKINGS, **{f"{side}_hospitals": hospitals}
        )


@pytest.mark.parametrize("side", [PATIENT, DOCTOR])
def test_a_hospital_label_that_is_not_a_str_is_reported_and_never_stored(ref_category, side):
    # A category built by hand can still hold one; load_market would
    # refuse any document holding it.
    labels = (1,) + ref_category.hospitals(side)[1:]
    cm = edit(ref_category, **{f"{side}_hospitals": labels})
    market = Market((cm,))
    violation = f"{AgentId(side, 0, 0)!r}: hospital label 1 is not a str"
    assert validate_market(market) == [violation]
    with pytest.raises(ValueError, match=f"^{re.escape(violation)}$"):
        store_market(market)


def test_store_market_refuses_an_unknown_mode():
    # load_market would refuse the document it wrote.
    with pytest.raises(ValueError, match="^unknown mode 'weird'"):
        store_market(Market((), "weird"))


@pytest.mark.parametrize("side", [PATIENT, DOCTOR])
@pytest.mark.parametrize("entry", [-1, -2, 2, 7])
def test_store_market_refuses_an_entry_off_the_opposite_roster(side, entry):
    # A negative entry would be written as another agent's id and load back
    # as a valid list; one past the roster has no id at all.
    lists = {PATIENT: ((0, 1), (1, 0)), DOCTOR: ((0, 1), (1, 0))}
    lists[side] = ((0, 1), (1, entry))
    cm = CategoryMarket(0, ("h1", "h2"), ("H1", "H2"), lists[PATIENT], lists[DOCTOR])
    market = Market((cm,), PARTIAL)
    violation = f"{AgentId(side, 0, 1)!r}: entry {entry} is not on the opposite roster"
    assert validate_market(market) == [violation]
    with pytest.raises(ValueError, match=f"^{re.escape(violation)}$"):
        store_market(market)


@pytest.mark.parametrize("side", [PATIENT, DOCTOR])
@pytest.mark.parametrize("entry", [True, 1.0], ids=repr)
def test_store_market_refuses_an_entry_that_is_not_an_int_ordinal(side, entry):
    # True would be written as the id at ordinal 1 and reload as 1; 1.0
    # indexes no id at all.
    lists = {PATIENT: ((0, 1), (1, 0)), DOCTOR: ((0, 1), (1, 0))}
    lists[side] = ((0, 1), (0, entry))
    cm = CategoryMarket(0, ("h1", "h2"), ("H1", "H2"), lists[PATIENT], lists[DOCTOR])
    market = Market((cm,), PARTIAL)
    violation = f"{AgentId(side, 0, 1)!r}: entry {entry!r} is not an int ordinal"
    assert validate_market(market) == [violation]
    with pytest.raises(ValueError, match=f"^{re.escape(violation)}$"):
        store_market(market)


@pytest.mark.parametrize("side", [PATIENT, DOCTOR])
def test_an_int_ordinal_may_be_an_int_subclass_but_not_a_bool(side):
    # An entry is an ordinal when it is an int and not a bool, so a full
    # list of IntEnum members is valid and True in its place is not.
    Ordinal = IntEnum("Ordinal", "FIRST SECOND", start=0)
    lists = {PATIENT: ((0, 1), (1, 0)), DOCTOR: ((0, 1), (1, 0))}
    lists[side] = ((0, 1), (Ordinal.SECOND, Ordinal.FIRST))
    cm = CategoryMarket(0, ("h1", "h2"), ("H1", "H2"), lists[PATIENT], lists[DOCTOR])
    assert validate_market(Market((cm,), FULL)) == []
    cm = cm.with_prefs(side, ((0, 1), (True, Ordinal.FIRST)))
    assert validate_market(Market((cm,), FULL)) == [
        f"{AgentId(side, 0, 1)!r}: entry True is not an int ordinal",
        f"{AgentId(side, 0, 1)!r}: list covers 1 of 2 counterparts in full-preference mode",
    ]


@pytest.mark.parametrize("side", [PATIENT, DOCTOR])
@pytest.mark.parametrize("mode", MODES)
def test_store_market_refuses_a_repeated_entry(side, mode):
    # Written, the list would reload as "duplicate agent id".
    lists = {PATIENT: ((0, 1), (1, 0)), DOCTOR: ((0, 1), (1, 0))}
    lists[side] = ((0, 1), (1, 1))
    cm = CategoryMarket(0, ("h1", "h2"), ("H1", "H2"), lists[PATIENT], lists[DOCTOR])
    market = Market((cm,), mode)
    # In full mode the list also covers too few counterparts; the repeat
    # is reported first.
    violation = f"{AgentId(side, 0, 1)!r}: duplicate entry {AgentId(opposite(side), 0, 1)!r}"
    assert validate_market(market)[0] == violation
    with pytest.raises(ValueError, match=f"^{re.escape(violation)}$"):
        store_market(market)


@pytest.mark.parametrize("side", [PATIENT, DOCTOR])
@pytest.mark.parametrize("count", [1, 3])
def test_store_market_refuses_a_side_with_more_or_fewer_lists_than_labels(side, count):
    # Lists are written keyed by their agents' ids: a missing list would
    # reload as "missing preference list", and an extra one would be dropped.
    lists = {PATIENT: ((0, 1), (1, 0)), DOCTOR: ((0, 1), (1, 0))}
    lists[side] = ((0, 1), (1, 0), (0, 1))[:count]
    cm = CategoryMarket(0, ("h1", "h2"), ("H1", "H2"), lists[PATIENT], lists[DOCTOR])
    market = Market((cm,), PARTIAL)
    assert validate_market(market) == [f"category 0: 2 {side}s but {count} preference lists"]
    with pytest.raises(ValueError, match=f"^category 0: 2 {side}s but {count} preference lists$"):
        store_market(market)


@pytest.mark.parametrize("index", [1, -1, True, 0.0])
def test_store_market_refuses_a_category_index_other_than_its_position(index):
    # 1 would reload as out of place, true and 0.0 as not an integer.
    cm = edit(market_from_rankings([[0]], [[0]]).categories[0], category=index)
    market = Market((cm,))
    assert validate_market(market) == [
        f"category index {index} at position 0: indices must be contiguous from 0"
    ]
    message = f"category index {index!r} at position 0: indices must be contiguous from 0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        store_market(market)


@pytest.mark.parametrize("side", [PATIENT, DOCTOR])
def test_store_market_refuses_a_short_list_in_full_mode(side):
    # Written, the list would reload as not covering the opposite roster;
    # the same lists are written in partial mode.
    lists = {PATIENT: ((0, 1), (1, 0)), DOCTOR: ((0, 1), (1, 0))}
    lists[side] = ((0, 1), (1,))
    cm = CategoryMarket(0, ("h1", "h2"), ("H1", "H2"), lists[PATIENT], lists[DOCTOR])
    market = Market((cm,), FULL)
    violation = f"{AgentId(side, 0, 1)!r}: list covers 1 of 2 counterparts in full-preference mode"
    assert validate_market(market) == [violation]
    with pytest.raises(ValueError, match=f"^{re.escape(violation)}$"):
        store_market(market)
    partial = Market((cm,), PARTIAL)
    assert load_market(store_market(partial)) == partial


def agent_ids_in(value):
    """How many AgentIds value holds, through nested tuples, lists and
    dict values."""
    if isinstance(value, AgentId):
        return 1
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return sum(map(agent_ids_in, value))
    return 0


def test_categories_hold_no_agent_ids(ref_market):
    generated = generate_random_market(2, 4, 3, seed=5)
    partial = generate_random_market(1, 4, 3, list_length=2, seed=5)
    made = [
        generated,
        partial,
        ref_market,
        load_market(store_market(partial)),
        perturb_preferences(generated, DOCTOR, 1.0, 2),
    ]
    categories = [cm for market in made for cm in market.categories]
    categories.append(category_from_rankings(1, [[0, 1]], [[0], [0]], ["a"], ["b", "c"]))
    for cm in categories:
        # Every attribute the category holds, its rank tables too once built.
        cm.ranks[PATIENT], cm.ranks[DOCTOR]
        assert set(CATEGORY_FIELDS) < set(vars(cm))
        for name, value in vars(cm).items():
            assert agent_ids_in(value) == 0, name


def test_untraced_runs_build_no_agent_ids(monkeypatch):
    built = []
    init = AgentId.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AgentId, "__init__", counting_init)
    market = generate_random_market(2, 8, 8)
    for mechanism, side in ((TOMHECS, PATIENT), (TOMHECS, DOCTOR), (RAMHECS, PATIENT)):
        matching, _ = run_categories(market, mechanism, side)
        for cm in market.categories:
            for scored in (PATIENT, DOCTOR):
                eta_zeta(cm, matching.partners(cm), scored)
    # The validated entry points name agents only in violations.
    tomhecs(market, DOCTOR)
    ramhecs(market, seed=3)
    # The oracles name none either: an empty matching of two mutually
    # listed pairs is unstable, and the category has two stable matchings.
    crossed = market_from_rankings([[1, 0], [0, 1]], [[0, 1], [1, 0]]).categories[0]
    rosters = {0: (crossed.patient_hospitals, crossed.doctor_hospitals)}
    empty = Matching.from_pairs(rosters, {0: []})
    assert not is_stable(crossed, empty)
    assert len(enumerate_stable_matchings(crossed)) == 2
    assert built == []
    # The edges still name agents.
    assert len(matching.pairs(0)) == 8 and len(built) == 16


def test_short_list_rejected_in_full_mode(ref_market):
    cm = ref_market.categories[0]
    short = cm.patient_prefs[0][:2]
    broken = edit(cm, patient_prefs=(short,) + cm.patient_prefs[1:])
    assert validate_market(Market((broken,), FULL))
    # The same lists are fine when the market is declared partial.
    assert validate_market(Market((broken,), PARTIAL)) == []


def reference_violations(market):
    """validate_market written out as one loop over every category index,
    roster length and list entry: the reference for its messages and their
    order.
    """
    out = []
    if market.mode not in MODES:
        out.append(f"unknown mode {market.mode!r}")
    for pos, cm in enumerate(market.categories):
        if type(cm.category) is not int or cm.category != pos:
            out.append(
                f"category index {cm.category} at position {pos}: "
                "indices must be contiguous from 0"
            )
    for cm in market.categories:
        for side in (PATIENT, DOCTOR):
            roster, prefs = cm.roster(side), cm.prefs(side)
            counterparts = cm.roster(opposite(side))
            for agent, label in zip(roster, cm.hospitals(side)):
                if not isinstance(label, str):
                    out.append(f"{agent!r}: hospital label {label!r} is not a str")
            if len(prefs) != len(roster):
                out.append(
                    f"category {cm.category}: {len(roster)} {side}s but "
                    f"{len(prefs)} preference lists"
                )
                continue
            for agent, row in zip(roster, prefs):
                if not isinstance(row, tuple):
                    out.append(f"{agent!r}: preference list {row!r} is not a tuple")
                    continue
                seen = set()
                for entry in row:
                    if not isinstance(entry, int) or isinstance(entry, bool):
                        out.append(f"{agent!r}: entry {entry!r} is not an int ordinal")
                    elif not 0 <= entry < len(counterparts):
                        out.append(f"{agent!r}: entry {entry!r} is not on the opposite roster")
                    elif entry in seen:
                        out.append(f"{agent!r}: duplicate entry {counterparts[entry]!r}")
                    else:
                        seen.add(entry)
                if market.mode == FULL and len(seen) < len(counterparts):
                    out.append(
                        f"{agent!r}: list covers {len(seen)} of {len(counterparts)} "
                        "counterparts in full-preference mode"
                    )
    return out


def mutate_category(cm, rng):
    """cm with one random defect, or none, in an index, a roster length, a
    hospital label or a preference list."""
    side = rng.choice((PATIENT, DOCTOR))
    prefs = list(cm.prefs(side))
    width = len(cm.hospitals(opposite(side)))
    kind = rng.choice(
        ("none", "row type", "entry", "duplicate", "short", "roster length",
         "hospital label", "category index", "row count")
    )
    if kind == "category index":
        index = rng.choice((True, 1.0, float("nan"), -1, cm.category + 1))
        return edit(cm, category=index)
    if kind == "roster length":
        # One label past, or one short of, the side's lists.
        labels = cm.hospitals(side)
        labels = labels + ("x",) if not labels or rng.random() < 0.5 else labels[:-1]
        return edit(cm, **{f"{side}_hospitals": labels})
    if kind == "hospital label" and cm.hospitals(side):
        labels = list(cm.hospitals(side))
        labels[rng.randrange(len(labels))] = rng.choice((1, None, 1.5, True, b"h1"))
        return edit(cm, **{f"{side}_hospitals": tuple(labels)})
    if kind == "row count" and prefs:
        prefs.pop()
    elif prefs and kind != "none":
        agent = rng.randrange(len(prefs))
        # A row an earlier edit made a non-tuple is edited as an empty one.
        row = list(prefs[agent]) if isinstance(prefs[agent], tuple) else []
        if kind == "row type":
            prefs[agent] = rng.choice((row, None, "d1", range(len(row))))
        else:
            if kind == "entry" and row:
                row[rng.randrange(len(row))] = rng.choice(
                    (True, False, -1, -width, width, width + 3, 1.5, "d1", None)
                )
            elif kind == "duplicate" and len(row) > 1:
                i, j = rng.sample(range(len(row)), 2)
                row[i] = row[j]
            elif kind == "short" and row:
                row.pop(rng.randrange(len(row)))
            prefs[agent] = tuple(row)
    return edit(cm, **{f"{side}_prefs": tuple(prefs)})


def test_validation_messages_match_the_per_entry_loop():
    rng = random.Random("validation-fuzz")
    invalid = 0
    for seed in range(1500):
        k, n, m = rng.randint(1, 3), rng.randint(0, 5), rng.randint(0, 5)
        length = None if seed % 2 else rng.randint(0, min(n, m))
        market = generate_random_market(k, n, m, list_length=length, seed=seed)
        categories = list(market.categories)
        for _ in range(rng.randint(1, 3)):
            c = rng.randrange(k)
            categories[c] = mutate_category(categories[c], rng)
        mode = rng.choice((market.mode, market.mode, FULL, PARTIAL, "weird"))
        broken = Market(tuple(categories), mode)
        expected = reference_violations(broken)
        assert validate_market(broken) == expected, seed
        invalid += bool(expected)
    assert invalid >= 1000, invalid


def test_generator_is_deterministic():
    a = generate_random_market(1, 4, 4, seed=7)
    b = generate_random_market(1, 4, 4, seed=7)
    assert a == b
    c = generate_random_market(1, 4, 4, seed=8)
    assert a != c
    # A category's lists are random.sample's draws from one Random seeded
    # "{seed}:gen:{category}", the patients' lists first, on both of its
    # branches: lists of 8 from 300 take the set branch, of 300 the pool.
    for list_length, k in ((8, 8), (None, 300)):
        cm = generate_random_market(1, 300, 300, list_length, seed=1).categories[0]
        rng = random.Random("1:gen:0")
        for side in (PATIENT, DOCTOR):
            assert cm.prefs(side) == tuple(
                tuple(rng.sample(range(300), k)) for _ in range(300)
            ), (k, side)
    assert not uses_pool_branch(300, 8) and uses_pool_branch(300, 300)


def test_generator_default_seed_is_zero():
    default = generate_random_market(2, 4, 4)
    assert default == generate_random_market(2, 4, 4, seed=0)
    assert default != generate_random_market(2, 4, 4, seed=1)


def test_generator_category_count_and_shape():
    market = generate_random_market(10, 4, 4, seed=3)
    assert market.mode == FULL
    assert len(market.categories) == 10
    for cm in market.categories:
        assert len(cm.patient_hospitals) == 4 and len(cm.doctor_hospitals) == 4
        for row in cm.patient_prefs + cm.doctor_prefs:
            assert len(row) == 4


def test_generator_partial_lists():
    market = generate_random_market(1, 5, 3, list_length=2, seed=11)
    assert market.mode == PARTIAL
    cm = market.categories[0]
    for row in cm.patient_prefs:
        assert len(row) == 2
        assert len(set(row)) == 2
        assert all(0 <= e < len(cm.doctor_hospitals) for e in row)
    for row in cm.doctor_prefs:
        assert len(row) == 2


def test_generator_rejects_oversized_lists():
    with pytest.raises(ValueError):
        generate_random_market(1, 5, 3, list_length=4, seed=0)
    with pytest.raises(ValueError):
        generate_random_market(1, 2, 5, list_length=3, seed=0)
    with pytest.raises(ValueError, match="^counts must be non-negative$"):
        generate_random_market(-1, 2, 2)
    with pytest.raises(ValueError, match="^list_length must be non-negative$"):
        generate_random_market(1, 2, 2, -1)


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
            for row in cm.patient_prefs:
                assert set(row) == set(range(len(cm.doctor_hospitals)))
        for side in (PATIENT, DOCTOR):
            width = len(cm.roster(opposite(side)))
            prefs, ranks = cm.prefs(side), cm.ranks[side]
            assert len(prefs) == len(ranks) == len(cm.roster(side))
            for row, table in zip(prefs, ranks):
                assert type(row) is tuple and all(type(e) is int for e in row)
                assert list(table) == rank_table(row, width)
                assert type(table) is (array if len(row) == width else list)


def test_perturbed_category_has_its_own_view(ref_market):
    cm = ref_market.categories[0]
    original = cm.ranks[PATIENT]
    out = perturb_preferences(ref_market, PATIENT, 1.0, 3).categories[0]
    assert out.patient_prefs != cm.patient_prefs
    assert out.ranks[PATIENT] is not original
    for row, table in zip(out.patient_prefs, out.ranks[PATIENT]):
        assert [table[e] for e in row] == list(range(len(row)))
    assert out.ranks[PATIENT] != original
    assert cm.ranks[PATIENT] is original
    # The doctors' lists are unchanged, so their table is shared.
    assert out.ranks[DOCTOR] is cm.ranks[DOCTOR]


def rank_table(row, width):
    """A row's ranks by its list: an unlisted counterpart ranks at the width."""
    return [row.index(c) if c in row else width for c in range(width)]


@pytest.mark.parametrize("side", [PATIENT, DOCTOR])
def test_ranks_builds_only_the_side_read(side):
    cm = generate_random_market(1, 5, 3, list_length=2, seed=4).categories[0]
    assert dict(cm.ranks) == {}
    tables = cm.ranks[side]
    assert list(cm.ranks) == [side]
    width = len(cm.roster(opposite(side)))
    assert tables == [rank_table(row, width) for row in cm.prefs(side)]
    assert cm.ranks[side] is tables
    with pytest.raises(KeyError):
        cm.ranks["nurse"]


@pytest.mark.parametrize("side", [PATIENT, DOCTOR])
def test_with_prefs_shares_the_unchanged_side(side):
    cm = generate_random_market(1, 4, 3, seed=2).categories[0]
    other = opposite(side)
    lists = tuple(row[::-1] for row in cm.prefs(side))
    copy = cm.with_prefs(side, lists)
    assert copy.prefs(side) == lists and copy.prefs(other) == cm.prefs(other)
    assert copy.category == cm.category
    assert copy.patient_hospitals is cm.patient_hospitals
    assert copy.doctor_hospitals is cm.doctor_hospitals
    # Nothing is built until read; then the unchanged side's table is one
    # object, whichever category reads it first.
    assert list(cm.ranks) == [] and list(copy.ranks) == []
    first, second = (copy, cm) if side == PATIENT else (cm, copy)
    assert first.ranks[other] is second.ranks[other]
    width = len(cm.roster(other))
    assert list(map(list, copy.ranks[side])) == [rank_table(row, width) for row in lists]
    assert list(map(list, cm.ranks[side])) == [
        rank_table(row, width) for row in cm.prefs(side)
    ]
    # Full lists: every row of every table is packed.
    for category in (cm, copy):
        assert all(type(table) is array for table in category.ranks[side])
    assert copy.ranks[side] is not cm.ranks[side]
    with pytest.raises(ValueError, match="unknown side"):
        cm.with_prefs("nurse", lists)


def test_full_rows_are_packed_and_partial_rows_are_lists():
    cm = category_from_rankings(
        0,
        [[2, 0, 1], [1], [], [0, 1, 2]],
        [[3, 0, 1, 2], [1, 3], [0, 1, 2, 3]],
    )
    for side in SIDES:
        width = len(cm.hospitals(opposite(side)))
        for row, table in zip(cm.prefs(side), cm.ranks[side]):
            assert list(table) == rank_table(row, width)
            if len(row) == width:
                assert type(table) is array and table.itemsize == 2
            else:
                assert type(table) is list and width in table


def test_rows_pack_up_to_width_65536():
    # Ranks run to width - 1, so 65536 is the widest row 2-byte slots hold.
    for width, packed in ((1 << 16, True), ((1 << 16) + 1, False)):
        full = tuple(range(width))[::-1]
        tables = _RankTables({PATIENT: ((full, (0,)), width)})[PATIENT]
        assert type(tables[0]) is (array if packed else list)
        assert tables[0][0] == width - 1 and tables[0][width - 1] == 0
        assert type(tables[1]) is list and tables[1][0] == 0 and tables[1][1] == width


def test_full_doctor_table_stays_small():
    # 512 packed rows of 1 KB each; as lists of shared ints the same table
    # takes about 2.1 MB.
    cm = generate_random_market(1, 512, 512, seed=3).categories[0]
    tracemalloc.start()
    try:
        tables = cm.ranks[DOCTOR]
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(type(table) is array for table in tables)
    assert size < 0.7e6


def mixed_category(seed, n=6):
    """Full patient lists; doctors alternate full and partial lists."""
    rng = random.Random(seed)
    patients = [rng.sample(range(n), n) for _ in range(n)]
    doctors = [rng.sample(range(n), n if d % 2 else rng.randint(0, n - 1)) for d in range(n)]
    return category_from_rankings(0, patients, doctors)


def with_list_rows(cm):
    """A copy of cm whose rank tables hold every row as a list."""
    twin = edit(cm)
    # ranks is a cached_property: this sets the twin's before any read.
    vars(twin)["ranks"] = {side: [list(table) for table in cm.ranks[side]] for side in SIDES}
    return twin


def test_packed_rows_read_like_list_rows():
    seen = {"blocking pairs": 0, "several stable matchings": 0}
    for seed in range(40):
        cm = mixed_category(seed)
        twin = with_list_rows(cm)
        assert {type(table) for table in cm.ranks[DOCTOR]} == {array, list}
        assert {type(table) for table in twin.ranks[DOCTOR]} == {list}
        rosters = {0: (cm.patient_hospitals, cm.doctor_hospitals)}
        for side in SIDES:
            assert tomhecs_category(cm, side) == tomhecs_category(twin, side)
            assert _gale_shapley(cm, side) == _gale_shapley(twin, side)
            matching = Matching(rosters, {0: tomhecs_category(cm, side)[0]})
            assert find_blocking_pairs(cm, matching) == find_blocking_pairs(twin, matching) == []
        ramhecs_result = ramhecs_category(cm, random.Random(seed))
        assert ramhecs_result == ramhecs_category(twin, random.Random(seed))
        matching = Matching(rosters, {0: ramhecs_result[0]})
        blocking = find_blocking_pairs(cm, matching)
        assert blocking == find_blocking_pairs(twin, matching)
        stable = enumerate_stable_matchings(cm)
        assert stable == enumerate_stable_matchings(twin)
        seen["blocking pairs"] += bool(blocking)
        seen["several stable matchings"] += len(stable) > 1
    assert all(seen.values()), seen


def test_agent_id_is_an_immutable_value():
    agent = AgentId(PATIENT, 0, 0)
    twin = AgentId(PATIENT, 0, 0)
    assert agent == twin and hash(agent) == hash(twin) and len({agent, twin}) == 1
    for other in (AgentId(DOCTOR, 0, 0), AgentId(PATIENT, 1, 0), AgentId(PATIENT, 0, 1)):
        assert agent != other
    # Never equal to the tuple of its fields, from either side.
    fields = (PATIENT, 0, 0)
    assert agent != fields and fields != agent
    assert fields not in {agent} and agent not in {fields}
    for name in ("side", "category", "ordinal", "hospital", "label", "extra"):
        with pytest.raises(AttributeError):
            setattr(agent, name, 1)
    with pytest.raises(AttributeError):
        del agent.ordinal
    assert (agent.side, agent.category, agent.ordinal) == fields
    # The hospital label is stored in the category only.
    assert not hasattr(agent, "hospital")
    assert repr(agent) == "<p1@c0>" and repr(AgentId(DOCTOR, 2, 4)) == "<d5@c2>"
    for twin in (pickle.loads(pickle.dumps(agent)), deepcopy(agent)):
        assert type(twin) is AgentId and twin == agent


def test_one_agent_has_one_agent_id():
    # Category 1 has labels, p1 and d1 both rank each other first, and the
    # hand-built matching pairs them apart: (p1, d1) blocks it.
    rankings = ([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    market = Market(tuple(category_from_rankings(c, *rankings) for c in (0, 1)), FULL)
    cm = market.categories[1]
    assert cm.hospitals(PATIENT) == ("h1", "h2") and cm.hospitals(DOCTOR) == ("H1", "H2")
    patient, doctor = AgentId(PATIENT, 1, 0), AgentId(DOCTOR, 1, 0)
    matching, stats = tomhecs(market, record_trace=True)
    crossed = Matching.from_pairs(matching.rosters, {1: [(0, 1), (1, 0)]})
    (blocking,) = find_blocking_pairs(cm, crossed)
    proposers = [check_truthfulness_exhaustive(cm, side)[0].proposer for side in SIDES]
    # The category's first event: p1 proposes to d1.
    first_event = next(event for event in stats.events if event[2].category == 1)
    found = {
        "roster": (cm.roster(PATIENT)[0], cm.roster(DOCTOR)[0]),
        "pairs": min(matching.pairs(1), key=lambda pair: pair[0].ordinal),
        "tomhecs event": first_event[2:],
        "find_blocking_pairs": tuple(blocking),
        "check_truthfulness_exhaustive": tuple(proposers),
    }
    for source, pair in found.items():
        assert pair == (patient, doctor), source
        assert tuple(map(hash, pair)) == (hash(patient), hash(doctor)), source
    assert CategoryTrace._fields == ("proposals", "rejections", "outer_iterations")


def test_category_equality_compares_its_fields_not_its_tables():
    cm = mixed_category(3)
    twin = edit(cm)
    assert cm == twin and hash(cm) == hash(twin)
    # Rank tables built on one only, and held as lists on another.
    listed = with_list_rows(cm)
    assert list(twin.ranks) == [] and cm == twin == listed
    assert hash(cm) == hash(twin) == hash(listed)
    changed = {
        "category": 1,
        "patient_hospitals": ("x",) + cm.patient_hospitals[1:],
        "doctor_hospitals": cm.doctor_hospitals[:-1] + ("x",),
        "patient_prefs": (cm.patient_prefs[0][::-1],) + cm.patient_prefs[1:],
        "doctor_prefs": cm.doctor_prefs[:-1] + (cm.doctor_prefs[-1][::-1],),
    }
    assert set(changed) == set(CATEGORY_FIELDS)
    for name, value in changed.items():
        assert getattr(cm, name) != value, name
        assert edit(cm, **{name: value}) != cm, name
    fields = tuple(getattr(cm, name) for name in CATEGORY_FIELDS)
    assert cm != fields and fields != cm
    assert eval(repr(cm), {"CategoryMarket": CategoryMarket}) == cm
    market = Market((cm,), PARTIAL)
    assert pickle.loads(pickle.dumps(market)) == deepcopy(market) == market
    for name in (*CATEGORY_FIELDS, "ranks", "extra"):
        with pytest.raises(AttributeError):
            setattr(cm, name, None)
        with pytest.raises(AttributeError):
            delattr(cm, name)
    assert cm == twin and sorted(cm.ranks) == sorted(SIDES)


def test_market_is_a_named_pair_whose_mode_defaults_to_full(ref_category):
    market = Market((ref_category,))
    assert market.mode == FULL and market == Market((ref_category,), FULL)
    assert market != Market((ref_category,), PARTIAL)
    assert market.categories == (ref_category,) and Market(()).mode == FULL
    with pytest.raises(AttributeError):
        market.mode = PARTIAL


@pytest.mark.parametrize("proposing_side", [PATIENT, DOCTOR])
def test_truthfulness_sweep_shares_the_true_receiver_tables(monkeypatch, proposing_side):
    cm = generate_random_market(1, 4, 4, seed=6).categories[0]
    fresh = generate_random_market(1, 4, 4, seed=6).categories[0]
    built = []
    build = _RankTables.__missing__

    def spy(tables, side):
        built.append((tables, side))
        return build(tables, side)

    def refuse(self, side, lists):
        raise AssertionError("the sweep made a with_prefs copy")

    monkeypatch.setattr(_RankTables, "__missing__", spy)
    monkeypatch.setattr(CategoryMarket, "with_prefs", refuse)
    reports = check_truthfulness_exhaustive(cm, proposing_side)
    monkeypatch.undo()
    assert sum(r.misreports_tried for r in reports) == 4 * 23
    # Every misreport ran on the category itself, and every score is a
    # position on a proposer's list: the only table built is the receivers',
    # once.
    assert [side for _, side in built] == [opposite(proposing_side)]
    assert all(tables is cm.ranks for tables, _ in built)
    assert reports == reference_truthfulness_sweep(fresh, proposing_side)


@pytest.mark.parametrize("list_length", [None, 3])
def test_patient_proposing_paths_build_no_patient_table(monkeypatch, tmp_path, list_length):
    # Scoring reads each agent's partner position from its own list, so a
    # patient-proposing run and stability check build the doctors' tables
    # only: one per category, shared by every perturbed copy.
    config = ExperimentConfig(
        k=1,
        n_patients=8,
        n_doctors=8,
        list_length=list_length,
        mechanisms=(RAMHECS, TOMHECS),
        proposing_side=PATIENT,
        measured_sides=(PATIENT, DOCTOR),
        presets=("none", "large"),
        repetitions=3,
        seed=4,
    )
    path = tmp_path / "market.json"
    path.write_bytes(store_market(generate_random_market(2, 8, 8, list_length, seed=4)))
    built = []
    build = _RankTables.__missing__

    def spy(tables, side):
        # Only a lookup whose source is lists builds a table.
        if not isinstance(tables._sources[side], _RankTables):
            built.append(side)
        return build(tables, side)

    monkeypatch.setattr(_RankTables, "__missing__", spy)
    result = run_experiment(config)
    assert len(result.rows) == 2 * 2 * 2 * config.repetitions
    assert built == [DOCTOR] * config.repetitions
    built.clear()
    assert main(["check", "stability", "--market", str(path), "--side", PATIENT]) == 0
    assert built == [DOCTOR, DOCTOR]


@pytest.mark.parametrize("list_length", [None, 3])
def test_perturbed_receivers_build_no_proposer_table(monkeypatch, list_length):
    # Perturbing the doctors' lists copies each category with with_prefs;
    # the patients' table it shares is built only if something reads it,
    # and a patient-proposing run reads the doctors' tables alone.
    config = ExperimentConfig(
        k=1,
        n_patients=8,
        n_doctors=8,
        list_length=list_length,
        presets=("large",),
        deviating_party="requested",
        measured_sides=(PATIENT, DOCTOR),
    )
    built = []
    build = _RankTables.__missing__

    def spy(tables, side):
        # Only a lookup whose source is lists builds a table.
        if not isinstance(tables._sources[side], _RankTables):
            built.append(side)
        return build(tables, side)

    monkeypatch.setattr(_RankTables, "__missing__", spy)
    assert run_experiment(config).rows
    assert built == [DOCTOR]


def test_category_and_rank_tables_form_no_cycle():
    # With the cycle collector off, only reference counting frees objects:
    # a category whose tables point back at it would stay alive.
    gc.disable()
    try:
        cm = generate_random_market(1, 6, 5, seed=1).categories[0]
        copy = cm.with_prefs(PATIENT, cm.patient_prefs[::-1])
        for category in (cm, copy):
            category.ranks[PATIENT], category.ranks[DOCTOR]
        refs = [weakref.ref(cm), weakref.ref(copy)]
        del category, cm
        assert refs[0]() is None
        del copy
        assert refs[1]() is None
    finally:
        gc.enable()


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(0, 2),
    n=st.integers(0, 5),
    m=st.integers(0, 5),
    list_length=st.none() | st.integers(0, 5),
    seed=st.integers(0, 10**6),
)
def test_store_load_round_trip(k, n, m, list_length, seed):
    # None is full mode; an int gives a partial market, clamped to the rosters.
    if list_length is not None:
        list_length = min(list_length, n, m)
    market = generate_random_market(k, n, m, list_length, seed=seed)
    assert load_market(store_market(market)) == market


def test_round_trip_reference(ref_market):
    blob = store_market(ref_market)
    assert load_market(blob) == ref_market
    # Serialization itself is deterministic.
    assert store_market(load_market(blob)) == blob


def reference_store_market(market):
    """store_market as json.dumps(indent=2) on the document's nested dicts:
    the reference for its bytes."""
    categories = []
    for cm in market.categories:
        patients, doctors = cm.roster(PATIENT), cm.roster(DOCTOR)
        categories.append(
            {
                "index": cm.category,
                "patients": [
                    {"id": a.label, "hospital": h} for a, h in zip(patients, cm.hospitals(PATIENT))
                ],
                "doctors": [
                    {"id": a.label, "hospital": h} for a, h in zip(doctors, cm.hospitals(DOCTOR))
                ],
                "patient_prefs": {
                    a.label: [doctors[e].label for e in row]
                    for a, row in zip(patients, cm.patient_prefs)
                },
                "doctor_prefs": {
                    a.label: [patients[e].label for e in row]
                    for a, row in zip(doctors, cm.doctor_prefs)
                },
            }
        )
    doc = {"mode": market.mode, "categories": categories}
    return json.dumps(doc, indent=2).encode("utf-8")


# Labels json.dumps escapes in every way it can: empty, non-ASCII, quotes,
# backslashes, control characters and a lone surrogate.
ODD_LABELS = ("", "h1", "Zürich", "病院", "\U0001f3e5", 'a"b', "back\\slash",
              "tab\tnew\nline", "\x00\x1f\x7f", "\ud800", "</script>")


def random_lists(rng, size, width, shape):
    """size random lists over range(width): full, of random lengths or empty."""
    if shape == "empty":
        return [[] for _ in range(size)]
    lengths = [width if shape == "full" else rng.randint(0, width) for _ in range(size)]
    return [rng.sample(range(width), length) for length in lengths]


def test_store_market_writes_the_bytes_of_json_dumps():
    rng = random.Random("store-reference")
    shapes = {"full": 0, "partial": 0, "empty": 0}
    for seed in range(600):
        categories = []
        shape = ("full", "partial", "empty")[seed % 3]
        for c in range(seed % 4):
            n, m = rng.randint(0, 6), rng.randint(0, 6)
            categories.append(
                category_from_rankings(
                    c,
                    random_lists(rng, n, m, shape),
                    random_lists(rng, m, n, shape),
                    [rng.choice(ODD_LABELS) for _ in range(n)],
                    [rng.choice(ODD_LABELS) for _ in range(m)],
                )
            )
            shapes[shape] += 1
        mode = FULL if shape == "full" else PARTIAL
        market = Market(tuple(categories), mode)
        assert store_market(market) == reference_store_market(market), seed
    assert min(shapes.values()) >= 250, shapes


def test_store_market_writes_the_bytes_of_json_dumps_at_scale():
    market = generate_random_market(1, 256, 256, list_length=32, seed=5)
    assert store_market(market) == reference_store_market(market)


def test_load_missing_pref_list_names_agent(ref_market):
    import json

    doc = json.loads(store_market(ref_market))
    del doc["categories"][0]["doctor_prefs"]["d2"]
    with pytest.raises(MarketFormatError) as err:
        load_market(json.dumps(doc))
    assert "d2" in str(err.value)


@pytest.mark.parametrize(
    "ranking, named",
    [
        (["d1", "d9", 7], "'d9'"),
        (["d1", 7, "d9"], "7"),
        ([True], "True"),
        ([None, "d1"], "None"),
        (["d2", ["d1"]], "['d1']"),
        ([{"id": "d1"}], "{'id': 'd1'}"),
        (["p1"], "'p1'"),
    ],
    ids=repr,
)
def test_load_names_the_first_unknown_entry(ref_market, ranking, named):
    doc = json.loads(store_market(ref_market))
    doc["categories"][0]["patient_prefs"]["p2"] = ranking
    with pytest.raises(MarketFormatError) as err:
        load_market(json.dumps(doc))
    assert err.value.path == "$.categories[0].patient_prefs.p2"
    assert str(err.value) == f"{err.value.path}: unknown agent id {named}"


def test_load_ignores_unknown_fields(ref_market):
    import json

    doc = json.loads(store_market(ref_market))
    doc["annotations"] = {"source": "manual"}
    doc["categories"][0]["flavor"] = "eye surgery"
    assert load_market(json.dumps(doc)) == ref_market


@pytest.mark.parametrize(
    "key, ident, ranking",
    [("patient_prefs", "p9", ["d1"]), ("patient_prefs", "p1 ", 5), ("doctor_prefs", "d9", [])],
    ids=["unknown-patient", "stray-space", "unknown-doctor"],
)
def test_load_rejects_a_list_for_an_agent_off_the_roster(ref_market, key, ident, ranking):
    doc = json.loads(store_market(ref_market))
    doc["categories"][0][key][ident] = ranking
    with pytest.raises(MarketFormatError) as excinfo:
        load_market(json.dumps(doc))
    assert excinfo.value.path == f"$.categories[0].{key}.{ident}"
    assert str(excinfo.value) == f"{excinfo.value.path}: unknown agent id {ident!r}"


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


def test_load_rejects_deeply_nested_document():
    with pytest.raises(MarketFormatError, match="nested too deeply"):
        load_market("[" * 100_000)


def test_load_rejects_boolean_category_index():
    import json

    doc = json.loads(store_market(generate_random_market(2, 2, 2, seed=0)))
    doc["categories"][1]["index"] = True
    with pytest.raises(MarketFormatError) as err:
        load_market(json.dumps(doc))
    assert err.value.path == "$.categories[1].index"


def test_load_rejects_undecodable_bytes():
    # Neither UTF-8 nor, after its byte-order mark, valid UTF-16.
    for data in (b"\x80{}", b"\xff\xfe{"):
        with pytest.raises(MarketFormatError, match="can't decode") as err:
            load_market(data)
        assert err.value.path == "$"


def test_load_rejects_integer_past_the_digit_limit():
    # Past sys.get_int_max_str_digits(), json.loads raises a bare ValueError.
    with pytest.raises(MarketFormatError):
        load_market(b'{"mode": "full", "categories": [{"index": ' + b"1" * 5000 + b"}]}")


# The byte fuzz starts from a stored partial market with unequal rosters.
FUZZ_SEED = store_market(
    market_from_rankings([[2, 0], [], [1]], [[1, 0], [0, 2], []], mode=PARTIAL)
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(("flip", "delete", "insert")),
            st.integers(0, 1 << 16),
            st.integers(0, 255),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_load_refuses_mutated_bytes_only_with_market_format_error(edits):
    data = bytearray(FUZZ_SEED)
    for kind, position, value in edits:
        if kind == "insert":
            data.insert(position % (len(data) + 1), value)
        elif data:
            i = position % len(data)
            if kind == "flip":
                data[i] ^= 1 << (value % 8)
            else:
                del data[i]
    try:
        load_market(bytes(data))
    except MarketFormatError:
        pass


def tree_positions(tree, path=()):
    """The path of every value in a parsed JSON tree, the root's included."""
    yield path
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from tree_positions(value, path + (key,))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from tree_positions(value, path + (i,))


# Wrong types (int, bool, null, array, object), unknown ids and ids of
# either side, so that a list may name its own side's agents.
TREE_VALUES = (0, 3, -1, True, False, None, 1.5, [], ["d1"], [["p1"]], {}, {"id": "p1"},
               "p1", "d1", "d3", "nobody", "")
# A stored partial market with unequal rosters and a full one with two categories.
TREE_SEEDS = (
    json.loads(FUZZ_SEED),
    json.loads(store_market(generate_random_market(2, 3, 2, seed=4))),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(range(len(TREE_SEEDS))),
    st.lists(
        st.tuples(
            st.sampled_from(("replace", "delete", "duplicate")),
            st.integers(0, 1 << 16),
            st.sampled_from(TREE_VALUES),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_load_refuses_mutated_trees_only_with_market_format_error(which, edits):
    doc = json.loads(json.dumps(TREE_SEEDS[which]))
    for kind, position, value in edits:
        paths = list(tree_positions(doc))[1:]
        if not paths:
            break
        *parent_path, key = paths[position % len(paths)]
        parent = doc
        for step in parent_path:
            parent = parent[step]
        if kind == "replace":
            parent[key] = value
        elif kind == "delete":
            del parent[key]
        elif isinstance(parent, list):
            # A repeated roster entry is a duplicate id; a repeated list
            # entry, a duplicate preference.
            parent.insert(key, parent[key])
        else:
            parent[f"{key}_copy"] = parent[key]
    try:
        load_market(json.dumps(doc))
    except MarketFormatError:
        pass


def resolve(doc):
    """The reference reading of a document whose ids all resolve: each list
    with its ids mapped to roster ordinals, and nothing checked."""
    categories = []
    for raw in doc["categories"]:
        ordinals = {side: {e["id"]: a for a, e in enumerate(raw[f"{side}s"])} for side in SIDES}
        hospitals = {side: tuple(e["hospital"] for e in raw[f"{side}s"]) for side in SIDES}
        prefs = {
            side: tuple(
                tuple(ordinals[opposite(side)][e] for e in raw[f"{side}_prefs"][ident])
                for ident in ordinals[side]
            )
            for side in SIDES
        }
        categories.append(
            CategoryMarket(raw["index"], hospitals[PATIENT], hospitals[DOCTOR],
                           prefs[PATIENT], prefs[DOCTOR])
        )
    return Market(tuple(categories), doc["mode"])


def first_fault(doc, market):
    """The path and message of validate_market's first violation of the
    resolved market, taken category by category, with agents named by the
    document's ids; None when validate_market reports none."""
    for pos, cm in enumerate(market.categories):
        # Valid empty categories before it keep its index check at pos.
        padding = tuple(CategoryMarket(c, (), (), (), ()) for c in range(pos))
        violations = validate_market(Market(padding + (cm,), market.mode))
        if violations:
            break
    else:
        return None
    path, first = f"$.categories[{pos}]", violations[0]
    if first.startswith("category index"):
        return f"{path}.index", first
    owner, message = re.fullmatch(r"<([pd]\d+)@c-?\d+>: (.*)", first).groups()

    def doc_id(label):
        side = PATIENT if label[0] == "p" else DOCTOR
        return side, doc["categories"][pos][f"{side}s"][int(label[1:]) - 1]["id"]

    side, ident = doc_id(owner)
    repeat = re.fullmatch(r"duplicate entry <([pd]\d+)@c-?\d+>", message)
    if repeat:
        message = f"duplicate agent id {doc_id(repeat[1])[1]!r}"
    return f"{path}.{side}_prefs.{ident}", message


def mutate_resolvable(doc, rng):
    """One edit of a stored market that keeps every id resolvable: a
    repeated or dropped list entry, a changed or reordered category index,
    or the other mode."""
    kind = rng.choice(("repeat", "overwrite", "drop", "index", "reorder", "mode"))
    categories = doc["categories"]
    if kind == "mode":
        doc["mode"] = PARTIAL if doc["mode"] == FULL else FULL
    elif kind == "reorder":
        rng.shuffle(categories)
    elif kind == "index":
        rng.choice(categories)["index"] = rng.choice((-1, 0, 1, 2))
    else:
        lists = rng.choice(categories)[rng.choice(("patient_prefs", "doctor_prefs"))]
        row = lists[rng.choice(list(lists))]
        if not row:
            return
        i = rng.randrange(len(row))
        if kind == "repeat":
            row.insert(rng.randrange(len(row) + 1), row[i])
        elif kind == "overwrite":
            row[rng.randrange(len(row))] = row[i]
        else:
            del row[i]


def test_load_checks_what_resolving_leaves_as_validate_market_does():
    # load_market refuses at the first fault it reads, so it is compared
    # with validate_market's verdict and first violation, not its whole
    # message list.
    rng = random.Random("resolved-checks")
    seeds = TREE_SEEDS + (json.loads(store_market(generate_random_market(3, 4, 3, seed=9))),)
    refusals = []
    for trial in range(600):
        doc = json.loads(json.dumps(seeds[trial % len(seeds)]))
        for _ in range(rng.randint(1, 3)):
            mutate_resolvable(doc, rng)
        text = json.dumps(doc)
        reference = resolve(json.loads(text))
        fault = first_fault(doc, reference)
        assert (fault is None) == (validate_market(reference) == []), (trial, doc)
        try:
            loaded = load_market(text)
        except MarketFormatError as exc:
            assert fault is not None, (trial, doc)
            path, message = fault
            assert (exc.path, str(exc)) == (path, f"{path}: {message}"), (trial, doc)
            refusals.append(message)
        else:
            assert fault is None and loaded == reference, (trial, doc)
    assert len(refusals) >= 200 and 600 - len(refusals) >= 100
    for violation in ("duplicate agent id", "counterparts in full-preference mode",
                      "indices must be contiguous"):
        assert sum(violation in m for m in refusals) >= 50, violation


# Patient ids that are doctor labels and doctor ids that are patient labels.
COLLIDING_IDS = {
    "mode": FULL,
    "categories": [
        {
            "index": 0,
            "patients": [{"id": "d1", "hospital": "h1"}, {"id": "zed", "hospital": "h2"}],
            "doctors": [{"id": "p1", "hospital": "H1"}, {"id": "p2", "hospital": "H2"}],
            "patient_prefs": {"d1": ["p2", "p1"], "zed": ["p1", "p2"]},
            "doctor_prefs": {"p1": ["zed", "d1"], "p2": ["d1", "zed"]},
        }
    ],
}


@pytest.mark.parametrize(
    "edit, path, message",
    [
        (("patient_prefs", "d1", ["p1", "p1"]), "patient_prefs.d1", "duplicate agent id 'p1'"),
        (("doctor_prefs", "p2", ["zed", "d1", "zed"]), "doctor_prefs.p2",
         "duplicate agent id 'zed'"),
        (("patient_prefs", "zed", ["p2"]), "patient_prefs.zed",
         "list covers 1 of 2 counterparts in full-preference mode"),
        (("index", None, 1), "index",
         "category index 1 at position 0: indices must be contiguous from 0"),
    ],
    ids=["repeat", "repeat-doctor", "short", "index"],
)
def test_load_refusals_name_the_documents_own_ids(edit, path, message):
    doc = json.loads(json.dumps(COLLIDING_IDS))
    category = doc["categories"][0]
    key, ident, value = edit
    if ident is None:
        category[key] = value
    else:
        category[key][ident] = value
    assert resolve(COLLIDING_IDS) == load_market(json.dumps(COLLIDING_IDS))
    with pytest.raises(MarketFormatError) as err:
        load_market(json.dumps(doc))
    assert err.value.path == f"$.categories[0].{path}"
    assert str(err.value) == f"{err.value.path}: {message}"


def uses_pool_branch(n, k):
    """Random.sample's rule: a pool list when it is smaller than a k-set."""
    return n <= 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


def sampler_cases():
    # Sizes on both sides of each branch switch (the pool is used up to
    # n = 21 for k <= 5, 85 for 6 <= k <= 21, 277 for 22 <= k <= 85 and
    # 1045 for 86 <= k <= 341) up to n = 4096, with every k from 0 to 6,
    # the k at each switch, and k == n.
    for n in (0, 1, 2, 5, 6, 7, 21, 22, 85, 86, 277, 278, 1045, 1046, 4096):
        for k in sorted({*range(7), 21, 22, 85, 86, 341, 342, 1000, n - 1, n}):
            if 0 <= k <= n:
                yield n, k
    # Every small case: each pool size up to 64, and both sides of the
    # pool/set switch at n = 21/22 for k <= 5.
    for n in range(65):
        for k in range(n + 1):
            yield n, k
    # Where the pool branch's draw width changes: k == n, and each k that
    # leaves n - k at 2**b - 1 or 2**b.
    for n in (31, 32, 33, 63, 64, 65, 255, 256, 257, 1023, 1024, 1025):
        rest = {(1 << b) - d for b in range(n.bit_length() + 1) for d in (0, 1)}
        for k in sorted({n} | {n - r for r in rest if 0 <= r <= n}):
            yield n, k
    rng = random.Random("sampler-cases")
    for _ in range(60):
        n = rng.randint(0, 4096)
        yield n, rng.choice((rng.randint(0, min(n, 6)), rng.randint(0, n)))


def test_sampler_matches_random_sample():
    cases = list(sampler_cases())
    assert {uses_pool_branch(n, k) for n, k in cases} == {True, False}
    for n, k in cases:
        for population in (range(n), tuple(f"x{i}" for i in range(n))):
            ours, stdlib = random.Random(f"{n}:{k}"), random.Random(f"{n}:{k}")
            sample = _sampler(ours)
            for _ in range(3):
                assert sample(population, k) == tuple(stdlib.sample(population, k)), (n, k)
            assert ours.getstate() == stdlib.getstate(), (n, k)


def test_sampler_keeps_the_stream_with_interleaved_draws():
    # The perturbation's pattern: a coin flip from rng.random(), then maybe
    # a resample from the same rng.
    shapes = random.Random("shapes")
    for seed in range(40):
        ours, stdlib = random.Random(f"mix:{seed}"), random.Random(f"mix:{seed}")
        sample = _sampler(ours)
        for _ in range(50):
            n = shapes.randint(0, 90)
            k = n if shapes.random() < 0.5 else shapes.randint(0, n)
            row = tuple(range(n))
            flip = ours.random() < 0.5
            assert flip == (stdlib.random() < 0.5)
            if flip:
                assert sample(row, k) == tuple(stdlib.sample(row, k)), (seed, n, k)
        assert ours.getstate() == stdlib.getstate(), seed


@pytest.mark.parametrize("k", [-1, 4])
def test_sampler_rejects_sizes_like_random_sample(k):
    with pytest.raises(ValueError):
        random.Random(0).sample(range(3), k)
    with pytest.raises(ValueError):
        _sampler(random.Random(0))(range(3), k)
