import gc
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_reference_market
from medmatch import generate_random_market, store_market
from medmatch import analytics, cli, harness, mechanisms
from medmatch.cli import main
from medmatch.market import CheckRefused


@pytest.fixture
def market_file(tmp_path):
    path = tmp_path / "market.json"
    path.write_bytes(store_market(make_reference_market()))
    return str(path)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "k": 2,
                "n_patients": 4,
                "n_doctors": 4,
                "mechanisms": ["ramhecs", "tomhecs"],
                "presets": ["none", "small"],
                "repetitions": 2,
                "seed": 7,
            }
        )
    )
    return str(path)


def test_run_writes_csv(tmp_path, config_file, capsys):
    out = tmp_path / "results.csv"
    code = main(["run", "--config", config_file, "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("rep,category,mechanism")
    assert len(lines) == 1 + 2 * 2 * 2 * 2
    assert "tomhecs" in capsys.readouterr().out


def test_run_overrides(tmp_path, config_file, monkeypatch):
    out = tmp_path / "results.json"
    code = main(
        [
            "run",
            "--config",
            config_file,
            "--out",
            str(out),
            "--format",
            "json",
            "--reps",
            "1",
            "--mechanism",
            "tomhecs",
            "--variation",
            "none",
            "--seed",
            "99",
        ]
    )
    assert code == 0
    records = json.loads(out.read_text())
    assert len(records) == 2  # 1 rep x 1 mechanism x 1 preset x 2 categories
    assert {r["mechanism"] for r in records} == {"tomhecs"}

    # Each flag replaces its own field and no other; an absent flag keeps
    # the file's value, and so does an empty --out.
    doc = {"k": 2, "n_patients": 4, "n_doctors": 4, "mechanisms": ["ramhecs"],
           "proposing_side": "doctor", "presets": ["small"], "repetitions": 2,
           "seed": 7, "out": "file.json", "fmt": "json"}
    path = tmp_path / "flags.json"
    path.write_text(json.dumps(doc))
    seen = []

    def capture(config):
        seen.append(config)
        raise harness.ConfigError("captured")

    monkeypatch.setattr(harness, "run_experiment", capture)
    cases = [
        ([], {}),
        (["--seed", "99"], {"seed": "99"}),
        (["--seed", ""], {"seed": ""}),
        (["--mechanism", "tomhecs", "--mechanism", "ramhecs"],
         {"mechanisms": ("tomhecs", "ramhecs")}),
        (["--side", "patient"], {"proposing_side": "patient"}),
        (["--variation", "large", "--variation", "none"], {"presets": ("large", "none")}),
        (["--reps", "5"], {"repetitions": 5}),
        (["--reps", "0"], {"repetitions": 0}),
        (["--out", "flag.csv"], {"out": "flag.csv"}),
        (["--out", ""], {}),
        (["--format", "csv"], {"fmt": "csv"}),
        (["--reps", "3", "--format", "csv", "--seed", "s"],
         {"repetitions": 3, "fmt": "csv", "seed": "s"}),
    ]
    for flags, changed in cases:
        assert main(["run", "--config", str(path), *flags]) == 1
        expected = harness.ExperimentConfig.from_dict(doc)
        for name, value in changed.items():
            setattr(expected, name, value)
        assert seen.pop() == expected, flags


@pytest.mark.parametrize(
    "doc, flags, field, value",
    [
        ({}, ["--mechanism", "tomhecs", "--mechanism", "tomhecs"], "mechanisms", "tomhecs"),
        ({}, ["--variation", "none", "--variation", "none"], "presets", "none"),
        ({"measured_sides": ["patient", "doctor", "patient"]}, [], "measured_sides", "patient"),
    ],
    ids=["mechanisms", "presets", "measured_sides"],
)
def test_run_rejects_a_repeated_grid_entry(tmp_path, capsys, doc, flags, field, value):
    # A repeated entry would run its grid cells twice, and summarize would add
    # both copies into one rep's totals: zeta 5 with 3 patients.
    path = tmp_path / "config.json"
    base = {"k": 1, "n_patients": 3, "n_doctors": 3, "mechanisms": ["tomhecs"],
            "repetitions": 2, "seed": 1}
    path.write_text(json.dumps({**base, **doc}))
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(path), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert f"config field {field!r} repeats {value!r}" in err
    assert "Traceback" not in err
    assert not out.exists()


# One document per rule of ExperimentConfig.from_dict and validate(), then
# documents with two faults, which pin the fault reported first.
CONFIG_REFUSALS = [
    ([], "config must be a JSON object"),
    ({"bogus": 1}, "unknown config keys: ['bogus']"),
    # mode is no config field: list_length alone picks full or partial lists.
    ({"mode": "partial"}, "unknown config keys: ['mode']"),
    ({"k": "3"}, "config field 'k' must be an integer, not '3'"),
    ({"k": True}, "config field 'k' must be an integer, not True"),
    ({"n_patients": 2.5}, "config field 'n_patients' must be an integer, not 2.5"),
    ({"repetitions": 2.5}, "config field 'repetitions' must be an integer, not 2.5"),
    ({"n_doctors": None}, "config field 'n_doctors' must be an integer, not None"),
    ({"list_length": "2"},
     "config field 'list_length' must be an integer or null, not '2'"),
    ({"mechanisms": "tomhecs"},
     "config field 'mechanisms' must be an array of strings, not 'tomhecs'"),
    ({"mechanisms": ["tomhecs", 1]},
     "config field 'mechanisms' must be an array of strings, not ['tomhecs', 1]"),
    ({"proposing_side": ["patient"]},
     "config field 'proposing_side' must be a string, not ['patient']"),
    ({"measured_sides": "patient"},
     "config field 'measured_sides' must be an array of strings, not 'patient'"),
    ({"presets": {}}, "config field 'presets' must be an array of strings, not {}"),
    ({"deviating_party": None},
     "config field 'deviating_party' must be a string, not None"),
    ({"repetitions": 2.0}, "config field 'repetitions' must be an integer, not 2.0"),
    ({"seed": [1]}, "config field 'seed' must be an integer or a string, not [1]"),
    ({"out": 1}, "config field 'out' must be a string or null, not 1"),
    ({"fmt": None}, "config field 'fmt' must be a string, not None"),
    ({"save_matchings": 1}, "config field 'save_matchings' must be a boolean, not 1"),
    ({"k": 0}, "config field 'k' must be at least 1, not 0"),
    ({"k": -1}, "config field 'k' must be at least 1, not -1"),
    ({"n_patients": -1}, "config field 'n_patients' must be non-negative, not -1"),
    ({"n_doctors": -2}, "config field 'n_doctors' must be non-negative, not -2"),
    ({"n_patients": -2}, "config field 'n_patients' must be non-negative, not -2"),
    ({"n_doctors": -3}, "config field 'n_doctors' must be non-negative, not -3"),
    ({"mechanisms": []}, "config field 'mechanisms' must not be empty"),
    ({"measured_sides": []}, "config field 'measured_sides' must not be empty"),
    ({"presets": []}, "config field 'presets' must not be empty"),
    ({"mechanisms": ["tomhecs", "tomhecs"]},
     "config field 'mechanisms' repeats 'tomhecs'"),
    ({"measured_sides": ["doctor", "patient", "doctor"]},
     "config field 'measured_sides' repeats 'doctor'"),
    ({"presets": ["none", "none"]}, "config field 'presets' repeats 'none'"),
    ({"repetitions": 0}, "repetitions must be >= 1"),
    ({"list_length": -1}, "config field 'list_length' must be non-negative, not -1"),
    ({"list_length": 30},
     "config field 'list_length' must not exceed a roster size (20 patients, 20 doctors), not 30"),
    ({"mechanisms": ["foo"]}, "unknown mechanism 'foo'"),
    ({"proposing_side": "nurse"}, "unknown proposing side 'nurse'"),
    ({"measured_sides": ["patient", "nurse"]}, "unknown measured side 'nurse'"),
    ({"presets": ["huge"]}, "unknown variation preset 'huge'"),
    ({"deviating_party": "both"}, "unknown deviating party 'both'"),
    ({"fmt": "xml"}, "unknown output format 'xml'"),
    # A list_length without a mode is no fault: it picks partial lists.
    ({"list_length": 2, "fmt": "xml"}, "unknown output format 'xml'"),
    # Two faults: the first rule in the order above is the one reported.
    ({"k": "3", "bogus": 1}, "unknown config keys: ['bogus']"),
    ({"seed": [1], "k": "3"}, "config field 'seed' must be an integer or a string, not [1]"),
    ({"k": 0, "bogus": "x"}, "unknown config keys: ['bogus']"),
    ({"repetitions": 0, "k": "3"}, "config field 'k' must be an integer, not '3'"),
    ({"n_patients": -1, "k": 0}, "config field 'k' must be at least 1, not 0"),
    ({"n_doctors": -1, "n_patients": -1},
     "config field 'n_patients' must be non-negative, not -1"),
    ({"presets": [], "n_doctors": -1},
     "config field 'n_doctors' must be non-negative, not -1"),
    ({"mechanisms": [], "repetitions": 0}, "config field 'mechanisms' must not be empty"),
    ({"presets": [], "measured_sides": []},
     "config field 'measured_sides' must not be empty"),
    ({"mechanisms": ["foo", "foo"]}, "config field 'mechanisms' repeats 'foo'"),
    ({"presets": ["huge", "none", "none"], "mechanisms": ["foo"]},
     "config field 'presets' repeats 'none'"),
    ({"list_length": -1, "repetitions": 0}, "repetitions must be >= 1"),
    ({"list_length": -1, "mechanisms": ["foo"]},
     "config field 'list_length' must be non-negative, not -1"),
    ({"list_length": 5, "n_doctors": 4, "mechanisms": ["foo"]},
     "config field 'list_length' must not exceed a roster size (20 patients, 4 doctors), not 5"),
    ({"mechanisms": ["foo"], "proposing_side": "nurse"}, "unknown mechanism 'foo'"),
    ({"proposing_side": "nurse", "measured_sides": ["nurse"]},
     "unknown proposing side 'nurse'"),
    ({"measured_sides": ["nurse"], "presets": ["huge"]}, "unknown measured side 'nurse'"),
    ({"presets": ["huge"], "deviating_party": "both"}, "unknown variation preset 'huge'"),
    ({"deviating_party": "both", "fmt": "xml"}, "unknown deviating party 'both'"),
]


@pytest.mark.parametrize(
    "doc, message", CONFIG_REFUSALS, ids=[json.dumps(doc) for doc, _ in CONFIG_REFUSALS]
)
def test_run_refuses_a_config_fault(tmp_path, capsys, doc, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_run_config_integer_past_the_digit_limit(tmp_path, capsys):
    # Past sys.get_int_max_str_digits(), json.load raises a bare ValueError.
    path = tmp_path / "config.json"
    path.write_text('{"unknown": ' + "1" * 5000 + "}")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
    assert "error: invalid config JSON: " in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_run_missing_config_is_io_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_run_unwritable_out_is_io_error(tmp_path, config_file):
    out = tmp_path / "no" / "such" / "dir" / "results.csv"
    assert main(["run", "--config", config_file, "--out", str(out)]) == 2


def test_check_stability(market_file, capsys):
    assert main(["check", "stability", "--market", market_file]) == 0
    assert capsys.readouterr().out == "category 0: stable\n"
    assert main(["check", "stability", "--market", market_file, "--side", "doctor"]) == 0
    assert capsys.readouterr().out == "category 0: stable\n"


def test_check_optimality_both_sides(market_file):
    assert main(["check", "optimality", "--market", market_file]) == 0
    assert main(["check", "optimality", "--market", market_file, "--side", "doctor"]) == 0


def test_check_truthfulness(market_file, capsys):
    assert main(["check", "truthfulness", "--market", market_file]) == 0
    out = capsys.readouterr().out
    assert "92 misreports tried" in out  # 4 proposers x 23 permutations


@pytest.mark.parametrize("side", ["patient", "doctor"])
def test_check_truthfulness_runs_no_matching(market_file, capsys, monkeypatch, side):
    argv = ["check", "truthfulness", "--market", market_file, "--side", side]
    assert main(argv) == 0
    expected = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("the truthfulness check ran a matching it never reads")

    monkeypatch.setattr(mechanisms, "run_categories", refuse)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_check_malformed_market(tmp_path, market_file, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{}")
    assert main(["check", "stability", "--market", str(path)]) == 1
    # A list that repeats an entry is refused at its JSON path.
    doc = json.loads(Path(market_file).read_text())
    row = doc["categories"][0]["patient_prefs"]["p1"]
    row.append(row[0])
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", "stability", "--market", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: $.categories[0].patient_prefs.p1: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "prop, n, list_length, message",
    [
        ("truthfulness", 6, None, "instance too large: opposite roster 6 > 5"),
        ("truthfulness", 4, 2, "misreport sweep requires full preference lists"),
    ],
    ids=["sweep-size", "sweep-partial"],
)
def test_refused_check_exits_3(tmp_path, capsys, prop, n, list_length, message):
    path = tmp_path / "market.json"
    path.write_bytes(store_market(generate_random_market(1, n, n, list_length, seed=0)))
    assert main(["check", prop, "--market", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"refused: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "n, list_length",
    # Full lists of 300 rank past 255, so their rows are packed 2-byte rank
    # tables; sparse lists of 8 from 300 leave most agents unmatched.
    [(9, None), (256, 32), (300, None), (300, 8)],
    ids=["full-9", "partial-256", "full-300", "partial-300"],
)
def test_check_optimality_past_the_enumeration_guard(tmp_path, capsys, n, list_length):
    path = tmp_path / "market.json"
    path.write_bytes(store_market(generate_random_market(1, n, n, list_length, seed=0)))
    assert main(["check", "optimality", "--market", str(path)]) == 0
    assert capsys.readouterr().out == "category 0: optimal\n"
    # From the doctors' side too, and the same matchings are stable.
    assert main(["check", "optimality", "--market", str(path), "--side", "doctor"]) == 0
    assert capsys.readouterr().out == "category 0: optimal\n"
    for side in ("patient", "doctor"):
        assert main(["check", "stability", "--market", str(path), "--side", side]) == 0
        assert capsys.readouterr().out == "category 0: stable\n"


def test_analytics_lemma4(capsys):
    code = main(["analytics", "lemma4", "--n", "100", "--trials", "2000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "49.5" in out


def test_analytics_lemma5(capsys):
    assert main(["analytics", "lemma5", "--n", "8", "--trials", "200", "--seed", "3"]) == 0
    # The sample mean at a stated seed, beside the exact mean and the paper's bound.
    assert capsys.readouterr().out == (
        "mean 28.0400 +/- 0.4551 (200 trials); n(n-1)/2 = 28.0000; n^2/16 lower bound = 4.0000\n"
    )


def test_analytics_lemma6(capsys):
    assert (
        main(["analytics", "lemma6", "--n", "32", "--trials", "5000", "--p", "0.5"]) == 0
    )
    assert "2.0000" in capsys.readouterr().out


def test_analytics_bad_parameters():
    assert main(["analytics", "lemma6", "--n", "8", "--trials", "10", "--p", "1.0"]) == 1


# What numpy raises for `match analytics lemma6 --n 8 --trials 1000000000000`.
NUMPY_OUT_OF_MEMORY = (
    "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"
)


@pytest.mark.parametrize(
    "message, printed",
    [(NUMPY_OUT_OF_MEMORY, NUMPY_OUT_OF_MEMORY), ("", "out of memory")],
    ids=["numpy", "bare"],
)
def test_analytics_out_of_memory(capsys, monkeypatch, message, printed):
    # Never a real oversized allocation: an overcommitting kernel may grant
    # it, and then the test touches it.
    def allocate(*args):
        raise MemoryError(message)

    monkeypatch.setattr(analytics, "simulate_geometric_rejections", allocate)
    assert main(["analytics", "lemma6", "--n", "8", "--trials", "1000000000000"]) == 1
    assert capsys.readouterr() == ("", f"error: {printed}\n")


@pytest.fixture
def collector():
    """Restore the cyclic collector's setting after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "raised, code",
    [(None, 0), (harness.ConfigError("bad"), 1), (OSError("disk full"), 2),
     (CheckRefused("too large"), 3)],
    ids=["exit-0", "exit-1", "exit-2", "exit-3"],
)
def test_main_pauses_and_restores_the_collector(
    config_file, monkeypatch, capsys, collector, raised, code, enabled
):
    run_experiment = harness.run_experiment
    seen = []

    def run(config):
        seen.append(gc.isenabled())
        if raised is not None:
            raise raised
        return run_experiment(config)

    monkeypatch.setattr(harness, "run_experiment", run)
    (gc.enable if enabled else gc.disable)()
    assert main(["run", "--config", config_file, "--out", os.devnull]) == code
    assert seen == [False]
    assert gc.isenabled() is enabled
    # Parsing runs before the pause: a usage error leaves the setting alone.
    with pytest.raises(SystemExit):
        main(["run"])
    assert gc.isenabled() is enabled


def cyclic_garbage(argv):
    """Run `match argv` with the collector off and return the number of
    unreachable objects it then finds. A first run imports what the command
    needs, so the count holds the command's own objects alone."""
    main(argv)
    gc.collect()
    gc.disable()
    try:
        main(argv)
    finally:
        found = gc.collect()
        gc.enable()
    return found


GRID = {"k": 2, "n_patients": 4, "n_doctors": 4, "mechanisms": ["ramhecs", "tomhecs"],
        "measured_sides": ["patient", "doctor"], "presets": ["none", "small"],
        "repetitions": 2, "seed": 7}


def grid_config(tmp_path, name, **changes):
    """Write GRID with changes to tmp_path/name.json; return its path."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**GRID, **changes}))
    return str(path)


def test_commands_leave_no_cyclic_garbage(tmp_path, market_file, capsys, collector):
    full = grid_config(tmp_path, "full")
    partial = grid_config(tmp_path, "partial", n_doctors=5, list_length=3,
                          proposing_side="doctor")
    refused = tmp_path / "six.json"
    refused.write_bytes(store_market(generate_random_market(1, 6, 6, seed=0)))
    out = str(tmp_path / "results.csv")
    commands = [
        ["run", "--config", full, "--out", out],
        ["run", "--config", partial, "--out", out],
        *(["check", prop, "--market", market_file]
          for prop in ("stability", "optimality", "truthfulness")),
        ["check", "truthfulness", "--market", str(refused)],
        ["check", "stability", "--market", str(tmp_path / "missing.json")],
        ["analytics", "lemma4", "--n", "8", "--trials", "100"],
        ["analytics", "lemma5", "--n", "8", "--trials", "100"],
        ["analytics", "lemma6", "--n", "8", "--trials", "100"],
    ]
    assert {" ".join(argv): cyclic_garbage(argv) for argv in commands} == {
        " ".join(argv): 0 for argv in commands
    }
    # The stdlib's json.dumps(indent=2) leaves one closure cycle per call:
    # JSON rows and saved matchings each make one call, however many rows.
    matchings = grid_config(tmp_path, "matchings", save_matchings=True)
    for argv in (["run", "--config", full, "--out", out, "--format", "json"],
                 ["run", "--config", matchings, "--out", out]):
        assert cyclic_garbage([*argv, "--reps", "1"]) == cyclic_garbage([*argv, "--reps", "3"])


# Runs in a fresh interpreter, since this one has already imported every
# module and numpy. Runs the commands given as its arguments, in order, and
# reports on stderr which medmatch submodules are loaded, and whether numpy
# is, after `import medmatch`, after `import medmatch.cli` and after each
# command. Only lemma6's output reaches stdout.
COLD_START = """
import contextlib, io, json, sys

report = {"modules": {}, "loaded": {}}

def record(step):
    report["modules"][step] = sorted(
        name.partition(".")[2] for name in sys.modules if name.startswith("medmatch.")
    )
    report["loaded"][step] = [
        name for name in ("dataclasses", "inspect", "numpy") if name in sys.modules
    ]

import medmatch
record("import medmatch")
import medmatch.cli
record("import medmatch.cli")
for command in sys.argv[1:]:
    argv = command.split()
    out = sys.stdout if argv[1] == "lemma6" else io.StringIO()
    with contextlib.redirect_stdout(out):
        assert medmatch.cli.main(argv) == 0, argv
    record(command)
print(json.dumps(report), file=sys.stderr)
"""

RUN = "run --config config.json --out results.csv"
CHECK = "check stability --market market.json"
LEMMA4 = "analytics lemma4 --n 8 --trials 100"
LEMMA5 = "analytics lemma5 --n 8 --trials 100"
LEMMA6 = "analytics lemma6 --n 16 --trials 2000 --p 0.5 --agents 3 --seed 4"


def cold_start(tmp_path, config_file, market_file, *commands):
    """Run COLD_START on `commands` in tmp_path; return its report and stdout."""
    os.replace(config_file, tmp_path / "config.json")
    os.replace(market_file, tmp_path / "market.json")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, *commands],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stderr)
    assert report["modules"]["import medmatch"] == []
    assert report["modules"]["import medmatch.cli"] == ["cli", "market"]
    return report, done.stdout


def test_only_lemma6_loads_numpy(tmp_path, config_file, market_file):
    report, stdout = cold_start(tmp_path, config_file, market_file, RUN, CHECK, LEMMA4, LEMMA6)
    assert {step: "numpy" in loaded for step, loaded in report["loaded"].items()} == {
        "import medmatch": False, "import medmatch.cli": False,
        RUN: False, CHECK: False, LEMMA4: False, LEMMA6: True,
    }
    # The line lemma6 printed while numpy was imported with the package.
    assert stdout == "mean 6.0510 +/- 0.0317 (2000 trials); agents/(1-p) = 6.0000\n"


def test_no_command_loads_dataclasses_or_inspect(tmp_path, config_file, market_file):
    # dataclasses imports inspect (and with it ast, dis and tokenize): a
    # start-up cost every match process would pay before matching anything.
    # The three commands run in turn in one interpreter, so each report
    # holds what all commands up to it loaded.
    report, _ = cold_start(tmp_path, config_file, market_file, RUN, CHECK, LEMMA4)
    assert report["loaded"] == {
        "import medmatch": [], "import medmatch.cli": [], RUN: [], CHECK: [], LEMMA4: [],
    }


@pytest.mark.parametrize(
    "command, modules",
    [
        (RUN, ["cli", "harness", "market", "mechanisms", "metrics"]),
        (CHECK, ["cli", "market", "mechanisms", "metrics", "oracle"]),
        (LEMMA4, ["analytics", "cli", "market"]),
        (LEMMA5, ["analytics", "cli", "market", "mechanisms", "metrics"]),
    ],
    ids=["run", "check", "lemma4", "lemma5"],
)
def test_a_command_loads_only_the_modules_it_runs(
    tmp_path, config_file, market_file, command, modules
):
    report, _ = cold_start(tmp_path, config_file, market_file, command)
    assert report["modules"][command] == modules


def test_package_names_are_their_modules_own_objects():
    import medmatch
    import medmatch.market

    listed = dir(medmatch)
    for name in medmatch.__all__:
        value = getattr(medmatch, name)
        # The four exported constants are strings, defined in market.
        home = sys.modules[value.__module__] if callable(value) else medmatch.market
        assert getattr(home, name) is value, name
        assert name in listed, name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        medmatch.no_such_name


def test_run_help_lists_the_presets(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "-h"])
    assert exc.value.code == 0
    assert "--variation {none,small,medium,large}" in capsys.readouterr().out


def test_run_unknown_variation_is_a_usage_error(tmp_path, capsys, config_file):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", config_file, "--variation", "huge", "--out", str(out)])
    assert exc.value.code == 2
    assert "invalid choice: 'huge'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "check"])
def test_deeply_nested_document_is_refused(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    if command == "run":
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]
    else:
        argv = ["check", "stability", "--market", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "nested too deeply" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["run", "check"])
def test_undecodable_file_is_refused(tmp_path, capsys, command):
    path = tmp_path / "bytes.json"
    path.write_bytes(b'{"k": 1, "mode": "full\xff"}')
    if command == "run":
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]
        named = str(path)
    else:
        argv = ["check", "stability", "--market", str(path)]
        named = "error: $: "
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert named in err
    assert "can't decode byte 0xff" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("failing", ["results.csv", "results.csv.matchings.json"])
def test_run_failed_write_keeps_earlier_outputs(tmp_path, monkeypatch, failing):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"k": 1, "n_patients": 3, "n_doctors": 3, "save_matchings": True})
    )
    out = tmp_path / "results.csv"
    side = tmp_path / "results.csv.matchings.json"
    out.write_text("old rows\n")
    side.write_text("old matchings\n")
    rename = os.replace

    def fail_on(src, dst):
        if os.path.basename(dst) == failing:
            raise OSError("disk full")
        rename(src, dst)

    monkeypatch.setattr(os, "replace", fail_on)
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert sorted(os.listdir(tmp_path)) == [
        "config.json",
        "results.csv",
        "results.csv.matchings.json",
    ]
    assert side.read_text() == "old matchings\n"
    if failing == "results.csv":
        assert out.read_text() == "old rows\n"


def test_run_out_through_a_symlink_updates_its_target(tmp_path, config_file):
    target = tmp_path / "results.csv"
    target.write_text("old rows\n")
    link = tmp_path / "latest.csv"
    link.symlink_to(target)
    assert main(["run", "--config", config_file, "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text().startswith("rep,category,mechanism,")
    assert sorted(os.listdir(tmp_path)) == ["config.json", "latest.csv", "results.csv"]


def test_run_out_devnull_writes_through_the_device(config_file):
    assert main(["run", "--config", config_file, "--out", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
