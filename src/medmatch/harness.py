"""Seeded experiment runner: mechanism x variation preset grid with CSV/JSON output.

Each repetition generates a fresh random market, applies each variation
preset to the designated party, runs each mechanism, and scores the result
against the TRUE (unperturbed) preferences. Identical configs produce
byte-identical output files.

The grid's settings are one ExperimentConfig, whose fields are declared once,
in _FIELDS: each one's default, JSON types and allowed values.
"""

from __future__ import annotations

import csv
import io
import json
import os
import stat
from collections import namedtuple
from statistics import fmean, stdev
from types import SimpleNamespace

from .market import (
    FORMATS,
    PATIENT,
    PRESET_PROBABILITIES,
    SIDES,
    generate_random_market,
    opposite,
    perturb_preferences,
)
from .mechanisms import MECHANISMS, Matching, run_categories
from .metrics import eta_zeta

REQUESTING = "requesting"
REQUESTED = "requested"

CSV_COLUMNS = (
    "rep",
    "category",
    "mechanism",
    "preset",
    "deviating_party",
    "measured_side",
    "eta",
    "zeta",
    "proposals",
    "rejections",
    "matched_count",
)


class ConfigError(ValueError):
    pass


# A config field: its default, the parsed JSON types it accepts, and for a
# field with named values, the values allowed and the noun that words an
# unknown one. Types match exactly, so true/false is never an integer; every
# array must hold strings, and every array field is a grid axis.
_Field = namedtuple("_Field", "default kinds choices noun", defaults=(None, None))
_FIELDS = {
    "k": _Field(10, (int,)),
    "n_patients": _Field(20, (int,)),
    "n_doctors": _Field(20, (int,)),
    "list_length": _Field(None, (int, type(None))),
    "mechanisms": _Field(("ramhecs", "tomhecs"), (list,), MECHANISMS, "mechanism"),
    "proposing_side": _Field(PATIENT, (str,), SIDES, "proposing side"),
    "measured_sides": _Field((PATIENT,), (list,), SIDES, "measured side"),
    "presets": _Field(("none",), (list,), PRESET_PROBABILITIES, "variation preset"),
    "deviating_party": _Field(REQUESTING, (str,), (REQUESTING, REQUESTED), "deviating party"),
    "repetitions": _Field(1, (int,)),
    "seed": _Field(0, (int, str)),
    "out": _Field(None, (str, type(None))),
    "fmt": _Field(FORMATS[0], (str,), FORMATS, "output format"),
    "save_matchings": _Field(False, (bool,)),
}
_JSON_NAMES = {
    int: "an integer",
    str: "a string",
    list: "an array of strings",
    bool: "a boolean",
    type(None): "null",
}


def _check_kind(name: str, value) -> None:
    """Refuse a value whose type its field does not accept. An array field
    takes a list (from JSON) or a tuple (by keyword) of strings."""
    kinds = _FIELDS[name].kinds
    if kinds == (list,):
        fits = type(value) in (list, tuple) and all(isinstance(v, str) for v in value)
    else:
        fits = type(value) in kinds
    if not fits:
        expected = " or ".join(_JSON_NAMES[kind] for kind in kinds)
        raise ConfigError(f"config field {name!r} must be {expected}, not {value!r}")


class ExperimentConfig(SimpleNamespace):
    """The experiment grid's settings. Each field is set by keyword, and
    defaults to its entry in _FIELDS. validate() checks every field's type
    as from_dict does, so a keyword-built config is refused alike.
    """

    def __init__(self, **fields):
        super().__init__(
            **{name: fields.pop(name, field.default) for name, field in _FIELDS.items()}
        )
        if fields:
            name = next(iter(fields))
            raise TypeError(f"ExperimentConfig() got an unexpected keyword argument {name!r}")

    def validate(self) -> None:
        for name in _FIELDS:
            _check_kind(name, getattr(self, name))
        if self.k < 1:
            raise ConfigError(f"config field 'k' must be at least 1, not {self.k!r}")
        for name in ("n_patients", "n_doctors"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"config field {name!r} must be non-negative, not {value!r}")
        # An empty grid axis yields no rows, and an empty result has no summary.
        # A repeated entry would run its grid cells twice, and summarize
        # would add both copies into one repetition's totals.
        axes = [name for name, field in _FIELDS.items() if field.kinds == (list,)]
        for name in axes:
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"config field {name!r} must not be empty")
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ConfigError(f"config field {name!r} repeats {value!r}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        # list_length null means full lists; an int, partial lists that long.
        length = self.list_length
        if length is not None and length < 0:
            raise ConfigError(f"config field 'list_length' must be non-negative, not {length!r}")
        if length is not None and length > min(self.n_patients, self.n_doctors):
            raise ConfigError(
                "config field 'list_length' must not exceed a roster size "
                f"({self.n_patients} patients, {self.n_doctors} doctors), not {length!r}"
            )
        for name, field in _FIELDS.items():
            if field.choices is not None:
                value = getattr(self, name)
                for choice in value if name in axes else (value,):
                    if choice not in field.choices:
                        raise ConfigError(f"unknown {field.noun} {choice!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Build a config from parsed JSON; reject unknown keys and wrong types."""
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - set(_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, value in doc.items():
            _check_kind(name, value)
        return cls(**{name: tuple(v) if type(v) is list else v for name, v in doc.items()})


# One row of output, its fields in CSV_COLUMNS order.
ResultRow = namedtuple("ResultRow", CSV_COLUMNS)
# rows, and matchings: (rep, mechanism, preset) -> Matching, kept only
# when save_matchings is set.
ExperimentResult = namedtuple("ExperimentResult", "rows matchings")


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    config.validate()
    result = ExperimentResult([], {})
    deviating_side = (
        config.proposing_side
        if config.deviating_party == REQUESTING
        else opposite(config.proposing_side)
    )
    for rep in range(config.repetitions):
        _run_repetition(config, rep, deviating_side, result)
    return result


def _run_repetition(
    config: ExperimentConfig, rep: int, deviating_side: str, result: ExperimentResult
) -> None:
    """Append one repetition's rows (and matchings) to result. Its markets
    and rank tables are this frame's alone, so none of them is still held
    while the next repetition generates its own."""
    market = generate_random_market(
        config.k,
        config.n_patients,
        config.n_doctors,
        config.list_length,
        seed=f"{config.seed}:market:{rep}",
    )
    perturbed = {
        preset: perturb_preferences(
            market,
            deviating_side,
            PRESET_PROBABILITIES[preset],
            seed=f"{config.seed}:perturb:{rep}:{preset}",
        )
        for preset in config.presets
    }
    for mechanism in config.mechanisms:
        for preset in config.presets:
            # Generated and perturbed markets are valid by construction.
            matching, stats = run_categories(
                perturbed[preset],
                mechanism,
                config.proposing_side,
                seed=f"{config.seed}:run:{rep}:{mechanism}:{preset}",
            )
            if config.save_matchings:
                result.matchings[(rep, mechanism, preset)] = matching
            # Scored against the TRUE preferences, not the misreports.
            partners = [matching.partners(cm) for cm in market.categories]
            for side in config.measured_sides:
                for cm, cm_partners, trace in zip(
                    market.categories, partners, stats.per_category
                ):
                    eta, zeta = eta_zeta(cm, cm_partners, side)
                    result.rows.append(
                        ResultRow(
                            rep,
                            cm.category,
                            mechanism,
                            preset,
                            config.deviating_party,
                            side,
                            eta,
                            zeta,
                            trace.proposals,
                            trace.rejections,
                            trace.proposals - trace.rejections,
                        )
                    )


def rows_to_csv(rows: list[ResultRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return buffer.getvalue()


def rows_to_json(rows: list[ResultRow]) -> str:
    return json.dumps([dict(zip(CSV_COLUMNS, row)) for row in rows], indent=2) + "\n"


def emit(rows: list[ResultRow], fmt: str, path: str) -> None:
    if fmt not in FORMATS:
        raise ConfigError(f"unknown output format {fmt!r}")
    write_atomic(path, rows_to_csv(rows) if fmt == "csv" else rows_to_json(rows))


def write_atomic(path: str, text: str) -> None:
    """Write text to path as UTF-8, as open(path, "w") would, but atomically
    where that can be done.

    When path names a regular file with one link, or nothing yet, the text
    goes to a temp file in the same directory that is synced to disk and
    renamed over it, so a failed write or a crash leaves any earlier file
    as it was and no temp file behind. A symlink is followed and its target
    replaced. An existing file keeps its mode; a new one gets the mode
    open() gives. Anything else (a device such as os.devnull, a pipe, a
    file with more than one link) is written in place.
    """
    target = os.path.realpath(path)
    try:
        info = os.stat(target)
    except FileNotFoundError:
        info = None
    if info is not None and (not stat.S_ISREG(info.st_mode) or info.st_nlink > 1):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    # Mode 0o666 less the umask, as open() creates files.
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        if info is not None:
            os.chmod(temp, stat.S_IMODE(info.st_mode))
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def summarize(rows: list[ResultRow]) -> dict[tuple[str, str, str], dict[str, float]]:
    """Group by (mechanism, preset, measured side); report mean and std of the
    per-repetition aggregates of eta and zeta (summed over categories).
    """
    if not rows:
        raise ValueError("summarize requires at least one row")
    per_rep: dict[tuple[str, str, str], dict[int, dict[str, int]]] = {}
    for row in rows:
        key = (row.mechanism, row.preset, row.measured_side)
        rep_totals = per_rep.setdefault(key, {}).setdefault(
            row.rep, {"eta": 0, "zeta": 0}
        )
        rep_totals["eta"] += row.eta
        rep_totals["zeta"] += row.zeta
    summary = {}
    for key, reps in per_rep.items():
        etas = [totals["eta"] for totals in reps.values()]
        zetas = [totals["zeta"] for totals in reps.values()]
        summary[key] = {
            "reps": len(reps),
            "eta_mean": fmean(etas),
            "eta_std": stdev(etas) if len(etas) > 1 else 0.0,
            "zeta_mean": fmean(zetas),
            "zeta_std": stdev(zetas) if len(zetas) > 1 else 0.0,
        }
    return summary


def matchings_to_jsonable(matchings: dict[tuple[int, str, str], Matching]) -> list[dict]:
    records = []
    for (rep, mechanism, preset), matching in sorted(matchings.items()):
        records.append(
            {
                "rep": rep,
                "mechanism": mechanism,
                "preset": preset,
                "pairs": {
                    str(category): sorted(
                        [p.label, d.label] for p, d in matching.pairs(category)
                    )
                    for category in sorted(matching.by_category)
                },
            }
        )
    return records

