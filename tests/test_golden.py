"""Golden output: `match run` CSV and stdout bytes are pinned across commits.

The digests were recorded from the code before the integer-view refactor;
any change to them is a change to the harness's byte-identical output and
must be deliberate.
"""

import hashlib
import json

import pytest

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
            mode="partial",
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
