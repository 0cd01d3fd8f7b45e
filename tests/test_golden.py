"""Golden output: `match run` CSV, JSON, stdout and saved-matchings bytes,
and the `store_market` wire format, are pinned across commits.

The `match run` CSV digests were recorded from the code before the integer-view
refactor, the `store_market` digests from the code before preference lists
were stored as ordinals, the saved-matchings digests from the code before
matchings held ordinal pairs; any change to them is a change to byte-identical
output and must be deliberate.
"""

import hashlib
import json

import pytest

from medmatch import generate_random_market, market_from_rankings, store_market
from medmatch.cli import main

GRID = {
    "mechanisms": ["ramhecs", "tomhecs"],
    "presets": ["none", "small", "medium", "large"],
    "measured_sides": ["patient", "doctor"],
    "repetitions": 3,
}
CASES = {
    "full": (
        dict(GRID, k=2, n_patients=4, n_doctors=4, seed=11),
        "73eca9fc12f2e8e42cb46f9771586c27139c2620b547e64052814942bc4eebb1",
    ),
    "partial-unequal": (
        dict(
            GRID,
            k=3,
            n_patients=6,
            n_doctors=5,
            list_length=3,
            proposing_side="doctor",
            seed=12,
        ),
        "299ba5f0ef50a5eccd9d4b148722e5d5acac8ebd75e6fdd2777f17e373364d56",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_match_run_output_bytes(name, tmp_path, monkeypatch, capsys):
    config, expected = CASES[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["run", "--config", "config.json", "--out", "results.csv"]) == 0
    stdout = capsys.readouterr().out
    digest = hashlib.sha256(
        stdout.encode() + b"\0" + (tmp_path / "results.csv").read_bytes()
    ).hexdigest()
    assert digest == expected


# sha256 of results.csv.matchings.json from `match run` with save_matchings
# set on each CASES config, recorded before matchings held ordinal pairs.
SAVED_MATCHINGS = {
    "full": "38b3da99c3daaf111d0f659da3c0f46f983f6cf8c5eec8e7739a48270ad1c3c4",
    "partial-unequal": "25e2cebee9b9b68c01b1f1fc8231cf3d5ac1dc196dd2db42adb8a6f8daac3175",
}


@pytest.mark.parametrize("name", sorted(SAVED_MATCHINGS))
def test_match_run_saved_matchings_bytes(name, tmp_path, monkeypatch):
    config, _ = CASES[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(dict(config, save_matchings=True)))
    assert main(["run", "--config", "config.json", "--out", "results.csv"]) == 0
    side = (tmp_path / "results.csv.matchings.json").read_bytes()
    assert hashlib.sha256(side).hexdigest() == SAVED_MATCHINGS[name]


# sha256 of results.json from `match run --format json` on each CASES
# config, recorded while result rows were still dataclasses written
# through dataclasses.asdict.
JSON_ROWS = {
    "full": "b48fa2d0a5473846ce4e041acc0bf9de1ccc3fd6bcdd82276fac9363e932c77a",
    "partial-unequal": "03857d551b07c9d1ff09a637d0b20c31913d790e4d0db5a8d9dc29ea90f13a70",
}


@pytest.mark.parametrize("name", sorted(JSON_ROWS))
def test_match_run_json_output_bytes(name, tmp_path, monkeypatch):
    config, _ = CASES[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config))
    argv = ["run", "--config", "config.json", "--out", "results.json", "--format", "json"]
    assert main(argv) == 0
    rows = (tmp_path / "results.json").read_bytes()
    assert hashlib.sha256(rows).hexdigest() == JSON_ROWS[name]


STORED = {
    "full": (
        lambda: generate_random_market(2, 5, 4, seed=21),
        "be56afd58fc2148bf2daa91bb0d5faaf9978252eba97b3ea15c8ef9b9a171dca",
    ),
    "partial-unequal": (
        lambda: market_from_rankings(
            [[2, 0], [], [1], [0, 1, 2]],
            [[3, 1], [0, 2, 3, 1], []],
            mode="partial",
            patient_hospitals=["St. Mary", "", "h9", "\u00e9cole"],
            doctor_hospitals=["H2", "H2", 'clinic "north"'],
        ),
        "23434ba50314d7b9dd5377305abd074fdd0f187a1a87923bc83a3e2cf91a7e07",
    ),
}


@pytest.mark.parametrize("name", sorted(STORED))
def test_store_market_bytes(name):
    build, expected = STORED[name]
    assert hashlib.sha256(store_market(build())).hexdigest() == expected
