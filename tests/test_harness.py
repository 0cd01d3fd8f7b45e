import json
import os
import stat
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medmatch.harness
import medmatch.market
import medmatch.mechanisms
import medmatch.metrics
from conftest import scores
from medmatch import Matching, generate_random_market, perturb_preferences, ramhecs, tomhecs
from medmatch.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    emit,
    matchings_to_jsonable,
    rows_to_csv,
    run_experiment,
    summarize,
    write_atomic,
)
from medmatch.market import DOCTOR, PATIENT, PRESET_PROBABILITIES


def config_fields(config=None):
    """Each field of ExperimentConfig, as the harness's field table declares
    them, with its value in config (by default, the table's default)."""
    return {
        name: field.default if config is None else getattr(config, name)
        for name, field in medmatch.harness._FIELDS.items()
    }


def small_config(**overrides):
    defaults = dict(
        k=2,
        n_patients=4,
        n_doctors=4,
        mechanisms=("tomhecs",),
        presets=("none",),
        repetitions=1,
        seed=5,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(repetitions=0).validate()
    with pytest.raises(ConfigError):
        small_config(mechanisms=("foo",)).validate()
    with pytest.raises(ConfigError):
        small_config(presets=("huge",)).validate()
    with pytest.raises(ConfigError):
        small_config(list_length=5).validate()  # longer than a roster
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"bogus_key": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"mode": "partial"})  # list_length decides
    small_config(list_length=2).validate()
    # Every field has a JSON type, and the defaults as JSON pass it.
    defaults = json.loads(json.dumps(config_fields(ExperimentConfig())))
    assert ExperimentConfig.from_dict(defaults) == ExperimentConfig()


def test_config_fields_are_keywords_with_class_defaults():
    config = ExperimentConfig(k=3)
    assert config_fields(config) == {**config_fields(), "k": 3}
    assert config == ExperimentConfig(k=3) and config != ExperimentConfig()
    with pytest.raises(TypeError, match="'bogus'"):
        ExperimentConfig(bogus=1)
    # match run's flags set fields in place; the defaults stay.
    config.seed = 7
    assert config.seed == 7 and ExperimentConfig().seed == 0
    assert repr(ExperimentConfig(seed="s")).startswith("ExperimentConfig(k=10, n_patients=20,")


# Every value a config field accepts, each of the wrong JSON types, and
# the values validate() refuses.
CONFIG_VALUES = st.sampled_from(
    (0, 1, 2, -1, True, False, None, 1.5, "", "x", "full", "partial", "patient",
     "doctor", "requesting", "requested", "csv", "json", "tomhecs", "none", "large",
     [], ["tomhecs"], ["ramhecs", "tomhecs"], ["patient", "doctor"], ["none", "small"],
     ["huge"], ["tomhecs", 1], [None], {}, {"k": 1})
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.dictionaries(
        st.sampled_from((*config_fields(), "bogus")),
        CONFIG_VALUES,
    )
    | CONFIG_VALUES
)
def test_random_config_documents_raise_only_config_error(doc):
    try:
        ExperimentConfig.from_dict(doc).validate()
    except ConfigError:
        pass


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.sampled_from(tuple(config_fields())), CONFIG_VALUES))
def test_random_keyword_configs_raise_only_config_error(fields):
    try:
        ExperimentConfig(**fields).validate()
    except ConfigError:
        pass


# Keyword-built configs of a wrong type or out of range, each refused in
# from_dict's words.
MISTYPED_KEYWORDS = [
    ({"k": "3"}, "config field 'k' must be an integer, not '3'"),
    ({"presets": ([],)}, "config field 'presets' must be an array of strings, not ([],)"),
    ({"repetitions": 2.5}, "config field 'repetitions' must be an integer, not 2.5"),
    ({"mechanisms": "tomhecs"},
     "config field 'mechanisms' must be an array of strings, not 'tomhecs'"),
    ({"seed": 1.5}, "config field 'seed' must be an integer or a string, not 1.5"),
    ({"save_matchings": 1}, "config field 'save_matchings' must be a boolean, not 1"),
    ({"k": True}, "config field 'k' must be an integer, not True"),
    ({"list_length": 30},
     "config field 'list_length' must not exceed a roster size (4 patients, 4 doctors), not 30"),
]


@pytest.mark.parametrize(
    "fields, message", MISTYPED_KEYWORDS, ids=[repr(fields) for fields, _ in MISTYPED_KEYWORDS]
)
def test_run_experiment_refuses_a_mistyped_keyword_config(fields, message):
    with pytest.raises(ConfigError) as err:
        run_experiment(small_config(**fields))
    assert str(err.value) == message


def test_single_rep_matches_direct_calls():
    config = small_config()
    rows = run_experiment(config).rows
    assert len(rows) == 2  # one per category
    market = generate_random_market(2, 4, 4, seed=f"{config.seed}:market:0")
    matching, stats = tomhecs(market, PATIENT)
    eta_by_cat, zeta_by_cat = scores(market, matching, PATIENT)
    for row in rows:
        assert row.eta == eta_by_cat[row.category]
        assert row.zeta == zeta_by_cat[row.category]
        assert row.proposals == stats.per_category[row.category].proposals
        assert row.matched_count == len(matching.pairs(row.category))


@pytest.mark.parametrize("proposing_side", [PATIENT, DOCTOR])
@pytest.mark.parametrize("shape", [(4, 4, None), (6, 5, 3)], ids=["full-4x4", "partial-6x5"])
def test_matched_count_is_proposals_less_rejections(shape, proposing_side):
    # Each row's matched_count is read from its category's counters, never
    # counted on the matching; it must still be the number of pairs.
    n_patients, n_doctors, list_length = shape
    config = small_config(
        k=3, n_patients=n_patients, n_doctors=n_doctors, list_length=list_length,
        mechanisms=("ramhecs", "tomhecs"), proposing_side=proposing_side,
        measured_sides=(PATIENT, DOCTOR), presets=("none", "large"), repetitions=3,
        save_matchings=True,
    )
    result = run_experiment(config)
    assert len(result.rows) == 3 * 2 * 2 * 2 * 3
    for row in result.rows:
        matching = result.matchings[(row.rep, row.mechanism, row.preset)]
        assert row.matched_count == len(matching.pairs(row.category))


def test_run_experiment_does_not_validate(monkeypatch):
    # Generated and perturbed markets are valid by construction.
    calls = []
    original = medmatch.market.validate_market

    def counting(m):
        calls.append(m)
        return original(m)

    for module in (medmatch.market, medmatch.mechanisms):
        monkeypatch.setattr(module, "validate_market", counting)
    config = small_config(mechanisms=("ramhecs", "tomhecs"), presets=("none", "large"))
    assert run_experiment(config).rows
    assert calls == []
    # The counter does see the public entry points' validation.
    ramhecs(generate_random_market(1, 3, 3, seed=0))
    assert len(calls) == 1


def test_a_repetition_holds_nothing_of_the_one_before():
    # One 256x256 category's market and rank tables dominate the traced
    # peak. If repetition r's were still reachable while r+1 generates its
    # own, two repetitions would peak at about twice one.
    def peak(repetitions):
        config = ExperimentConfig(
            k=1, n_patients=256, n_doctors=256, mechanisms=("tomhecs",),
            repetitions=repetitions, seed=1,
        )
        tracemalloc.start()
        try:
            run_experiment(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first-use caches are not a repetition's
    assert peak(2) <= 1.1 * peak(1)


def test_each_matching_is_scored_once(monkeypatch):
    # The paper grid with one rep: 2 mechanisms x 4 presets x 10 categories
    # give 80 partner maps, and 2 measured sides 160 scorings and rows, each
    # scoring one partner_ranks call.
    calls = {"partners": 0, "eta_zeta": 0, "partner_ranks": 0}
    partners = Matching.partners
    eta_zeta, partner_ranks = medmatch.harness.eta_zeta, medmatch.metrics.partner_ranks

    def counting_partners(self, cm):
        calls["partners"] += 1
        return partners(self, cm)

    def counting_eta_zeta(*args):
        calls["eta_zeta"] += 1
        return eta_zeta(*args)

    def counting_partner_ranks(*args):
        calls["partner_ranks"] += 1
        return partner_ranks(*args)

    monkeypatch.setattr(Matching, "partners", counting_partners)
    monkeypatch.setattr(medmatch.harness, "eta_zeta", counting_eta_zeta)
    monkeypatch.setattr(medmatch.metrics, "partner_ranks", counting_partner_ranks)
    config = ExperimentConfig(
        mechanisms=("ramhecs", "tomhecs"),
        presets=tuple(PRESET_PROBABILITIES),
        measured_sides=(PATIENT, DOCTOR),
    )
    assert len(run_experiment(config).rows) == 160
    assert calls == {"partners": 80, "eta_zeta": 160, "partner_ranks": 160}


def test_row_grid_shape_and_order():
    config = small_config(
        mechanisms=("ramhecs", "tomhecs"),
        presets=("none", "small"),
        measured_sides=("patient", "doctor"),
        repetitions=3,
    )
    rows = run_experiment(config).rows
    assert len(rows) == 3 * 2 * 2 * 2 * 2  # reps x mech x preset x side x category
    keys = [(r.rep, r.mechanism, r.preset) for r in rows]
    assert keys == sorted(keys, key=lambda t: (t[0], t[1], config.presets.index(t[2])))


def test_metrics_scored_against_true_preferences():
    # With q=1 every proposer misreports; the harness must score the outcome
    # on the original lists, matching a manual recomputation.
    config = small_config(presets=("large",), repetitions=2, seed=11)
    config.presets = ("large",)
    rows = run_experiment(config).rows
    for rep in range(2):
        market = generate_random_market(2, 4, 4, seed=f"{config.seed}:market:{rep}")
        perturbed = perturb_preferences(
            market, PATIENT, 1 / 2, seed=f"{config.seed}:perturb:{rep}:large"
        )
        matching, _ = tomhecs(perturbed, PATIENT)
        eta_by_cat, _ = scores(market, matching, PATIENT)
        for row in rows:
            if row.rep == rep:
                assert row.eta == eta_by_cat[row.category]


def test_emit_csv(tmp_path):
    config = small_config(repetitions=2)
    rows = run_experiment(config).rows
    out = tmp_path / "rows.csv"
    emit(rows, "csv", str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(rows)


def test_emit_json(tmp_path):
    rows = run_experiment(small_config()).rows
    out = tmp_path / "rows.json"
    emit(rows, "json", str(out))
    records = json.loads(out.read_text())
    assert len(records) == len(rows)
    assert set(records[0]) == set(CSV_COLUMNS)


def test_emit_failure_leaves_the_old_file(tmp_path):
    out = tmp_path / "rows.csv"
    out.write_text("old\n")
    rows = run_experiment(small_config()).rows
    # A lone surrogate cannot be encoded as UTF-8: the write fails midway.
    bad = rows[:1] + [rows[1]._replace(mechanism="\ud800")] + rows[2:]
    with pytest.raises(UnicodeEncodeError):
        emit(bad, "csv", str(out))
    # An unknown format is refused before any file is opened.
    with pytest.raises(ConfigError, match=r"^unknown output format 'xml'$"):
        emit([], "xml", str(tmp_path / "rows.xml"))
    assert out.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["rows.csv"]


def test_write_atomic_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch):
    out = tmp_path / "rows.csv"
    out.write_text("old\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_atomic(str(out), "new\n")
    assert out.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["rows.csv"]


def test_write_atomic_gives_the_mode_open_gives(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text("x\n")
    out = tmp_path / "rows.csv"
    write_atomic(str(out), "new\n")
    assert out.read_text() == "new\n"
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_write_atomic_keeps_an_existing_mode(tmp_path):
    out = tmp_path / "rows.csv"
    out.write_text("old\n")
    out.chmod(0o600)
    write_atomic(str(out), "new\n")
    assert out.read_text() == "new\n"
    assert stat.S_IMODE(out.stat().st_mode) == 0o600


def test_write_atomic_writes_a_hard_linked_file_in_place(tmp_path):
    out = tmp_path / "rows.csv"
    out.write_text("old\n")
    other = tmp_path / "other.csv"
    os.link(out, other)
    write_atomic(str(out), "new\n")
    assert other.read_text() == "new\n"
    assert os.path.samefile(out, other)


def test_write_atomic_syncs_before_rename(tmp_path, monkeypatch):
    calls = []
    fsync, rename = os.fsync, os.replace
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append("fsync") or fsync(fd))
    monkeypatch.setattr(
        os, "replace", lambda src, dst: calls.append("replace") or rename(src, dst)
    )
    write_atomic(str(tmp_path / "rows.csv"), "new\n")
    assert calls == ["fsync", "replace"]


def test_byte_identical_reruns(tmp_path):
    config = small_config(repetitions=3, mechanisms=("ramhecs", "tomhecs"))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(run_experiment(config).rows, "csv", str(a))
    emit(run_experiment(config).rows, "csv", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_summarize_groups_and_aggregates():
    config = small_config(
        mechanisms=("ramhecs", "tomhecs"), presets=("none", "large"), repetitions=4
    )
    rows = run_experiment(config).rows
    summary = summarize(rows)
    assert set(summary) == {
        (m, p, "patient") for m in ("ramhecs", "tomhecs") for p in ("none", "large")
    }
    for stats in summary.values():
        assert stats["reps"] == 4
        assert stats["eta_std"] >= 0
    # Per-rep aggregate equals the sum over that rep's category rows.
    rep0 = sum(
        r.eta for r in rows if r.rep == 0 and r.mechanism == "tomhecs" and r.preset == "none"
    )
    per_key = [
        r.eta for r in rows if r.mechanism == "tomhecs" and r.preset == "none"
    ]
    assert summary[("tomhecs", "none", "patient")]["eta_mean"] == pytest.approx(
        sum(per_key) / 4
    )
    assert rep0 <= sum(per_key)


def test_summarize_requires_rows():
    with pytest.raises(ValueError):
        summarize([])


def test_saved_matchings_round_trip_consistency():
    config = small_config(
        mechanisms=("ramhecs", "tomhecs"), presets=("none", "large"), repetitions=2,
        save_matchings=True,
    )
    result = run_experiment(config)
    assert set(result.matchings) == set(
        product(range(2), ("ramhecs", "tomhecs"), ("none", "large"))
    )
    records = matchings_to_jsonable(result.matchings)
    blob = json.dumps(records)
    for record in json.loads(blob):
        rep = record["rep"]
        assert sorted(record["pairs"]) == ["0", "1"]
        for pairs in record["pairs"].values():
            for side in (0, 1):
                labels = [pair[side] for pair in pairs]
                assert len(set(labels)) == len(labels), record
        market = generate_random_market(2, 4, 4, seed=f"{config.seed}:market:{rep}")
        rosters, by_category = {}, {}
        for cm in market.categories:
            patients = {a.label: i for i, a in enumerate(cm.roster(PATIENT))}
            doctors = {a.label: j for j, a in enumerate(cm.roster(DOCTOR))}
            rosters[cm.category] = (cm.patient_hospitals, cm.doctor_hospitals)
            by_category[cm.category] = [
                (patients[p], doctors[d]) for p, d in record["pairs"][str(cm.category)]
            ]
        matching = Matching.from_pairs(rosters, by_category)
        eta_by_cat, _ = scores(market, matching, PATIENT)
        cell = (rep, record["mechanism"], record["preset"])
        for row in result.rows:
            if (row.rep, row.mechanism, row.preset) == cell:
                assert row.eta == eta_by_cat[row.category]


def test_rows_to_csv_deterministic():
    rows = run_experiment(small_config(repetitions=2)).rows
    assert rows_to_csv(rows) == rows_to_csv(rows)
