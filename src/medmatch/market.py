"""Agents, categories, preference profiles, market construction and perturbation.

A market is a collection of independent categories. Within a category each
patient ranks some (or all) of the doctors and each doctor ranks some (or
all) of the patients. Each list is stored once, as opposite-roster
ordinals, best first, and matchings pair ordinals too. Besides its list,
an agent has only a hospital label, held at its ordinal in its side's
label tuple. An `AgentId`, an agent's side, category and ordinal, is built
on demand by `CategoryMarket.roster` (trace events, oracle reports),
`Matching.pairs` (the saved-matchings file) and validation messages. All
types are immutable after construction: `Market` is a named tuple;
`AgentId` and `CategoryMarket` are plain classes that refuse assignment.

Random lists are drawn by `_sampler(rng)`, whose `sample(population, k)`
makes the same `rng.getrandbits` calls as the standard library's
`random.sample` and returns the same items as a tuple: markets and
perturbations are the ones `random.sample` would give, only faster.
"""

from __future__ import annotations

import json
import random
from array import array
from collections import namedtuple
from functools import cache, cached_property
from math import ceil, log
from struct import Struct

PATIENT = "patient"
DOCTOR = "doctor"
SIDES = (PATIENT, DOCTOR)

FULL = "full"
PARTIAL = "partial"
MODES = (FULL, PARTIAL)

# Named deviation probabilities for perturbing one side's lists: the
# experiment grid's presets and `match run --variation`'s choices.
PRESET_PROBABILITIES = {
    "none": 0.0,
    "small": 1 / 8,
    "medium": 1 / 4,
    "large": 1 / 2,
}

# `match run`'s output formats: the config's fmt and --format's choices.
FORMATS = ("csv", "json")


class InvalidMarketError(ValueError):
    """A mechanism was handed a market that fails validation."""


class CheckRefused(ValueError):
    """A check declined an instance outside its guard: rosters too large,
    or partial lists where the sweep needs full ones. Nothing was checked.
    Raised by `oracle`; defined here so `match` maps it to its exit code
    without importing the oracle.
    """


class MarketFormatError(ValueError):
    """A serialized market document is malformed or violates the schema."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def opposite(side: str) -> str:
    if side == PATIENT:
        return DOCTOR
    if side == DOCTOR:
        return PATIENT
    raise ValueError(f"unknown side {side!r}")


def _read_only(self, name, *value):
    """__setattr__ and __delattr__ of an immutable class."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


class AgentId:
    """Identity of one patient or doctor within a market: its side,
    category and ordinal; its hospital label is cm.hospitals(side)[ordinal].
    Immutable; equal and hashed by its three fields, and never equal to a
    tuple of them.
    """

    __slots__ = ("side", "category", "ordinal")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, side: str, category: int, ordinal: int):
        init = object.__setattr__
        init(self, "side", side)
        init(self, "category", category)
        init(self, "ordinal", ordinal)

    def _key(self) -> tuple:
        return (self.side, self.category, self.ordinal)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is AgentId else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        # pickle and copy rebuild it through __init__, not by assignment.
        return AgentId, self._key()

    @property
    def label(self) -> str:
        prefix = "p" if self.side == PATIENT else "d"
        return f"{prefix}{self.ordinal + 1}"

    def __repr__(self) -> str:
        return f"<{self.label}@c{self.category}>"


class CategoryMarket:
    """One category's hospital labels and both preference profiles.

    Agent a of a side is position a of that side's tuples. Rosters may have
    unequal sizes; lists may cover a strict subset of the opposite roster.
    Immutable; equal and hashed by its five fields, never by its rank
    tables.
    """

    __setattr__ = __delattr__ = _read_only

    def __init__(
        self,
        category: int,
        # hospitals[a] is agent a's hospital label.
        patient_hospitals: tuple[str, ...],
        doctor_hospitals: tuple[str, ...],
        # prefs[a] is agent a's list as opposite-roster ordinals, best first.
        patient_prefs: tuple[tuple[int, ...], ...],
        doctor_prefs: tuple[tuple[int, ...], ...],
    ):
        self.__dict__.update(
            category=category,
            patient_hospitals=patient_hospitals,
            doctor_hospitals=doctor_hospitals,
            patient_prefs=patient_prefs,
            doctor_prefs=doctor_prefs,
        )

    def _key(self) -> tuple:
        return (self.category, self.patient_hospitals, self.doctor_hospitals,
                self.patient_prefs, self.doctor_prefs)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is CategoryMarket else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "CategoryMarket({}, {}, {}, {}, {})".format(*map(repr, self._key()))

    def hospitals(self, side: str) -> tuple[str, ...]:
        return self.patient_hospitals if side == PATIENT else self.doctor_hospitals

    def roster(self, side: str) -> tuple[AgentId, ...]:
        """The side's agents as AgentIds, built anew on each call."""
        return tuple(AgentId(side, self.category, a) for a in range(len(self.hospitals(side))))

    def prefs(self, side: str) -> tuple[tuple[int, ...], ...]:
        return self.patient_prefs if side == PATIENT else self.doctor_prefs

    @cached_property
    def ranks(self) -> dict[str, list[array | list[int]]]:
        """Per side, ranks[side][agent][counterpart]: the counterpart's
        0-based rank on the agent's list or, when unlisted, the row's width
        (the opposite roster's size). A row whose list covers the whole
        opposite roster (of at most 65,536) is an array("H") of 2-byte
        ranks; any other row is a list. Both read the same by subscript.
        Each side's table is built on its first lookup and cached on this
        category object. A copy made by with_prefs shares the unchanged
        side's table; tables are never mutated.

        A table is read only by one `<` that compares two counterparts on
        one agent's list, or one with the width to test that it is listed:
        by the receivers in tomhecs_category and oracle._gale_shapley, by
        ramhecs_category's partial-list branch, and by the doctors in the
        blocking scan and the stable-matching enumerator. An agent's rank of
        its own partner is the partner's position on its list
        (metrics.partner_ranks), read without a table, so a
        patient-proposing run builds only the doctors' table.
        """
        return _RankTables(
            {side: (self.prefs(side), len(self.hospitals(opposite(side)))) for side in SIDES}
        )

    def with_prefs(self, side: str, lists: tuple[tuple[int, ...], ...]) -> "CategoryMarket":
        """A copy with side's preference lists replaced by lists. The copy
        shares both label tuples, so a matching computed on either one
        scores on the other, and the other side's rank table, which neither
        builds until one of them reads it.
        """
        other = opposite(side)
        prefs = {side: lists, other: self.prefs(other)}
        copy = CategoryMarket(self.category, self.patient_hospitals, self.doctor_hospitals,
                              prefs[PATIENT], prefs[DOCTOR])
        # ranks is a cached_property: this sets the copy's before any read.
        sources = {side: (lists, len(self.hospitals(other))), other: self.ranks}
        copy.__dict__["ranks"] = _RankTables(sources)
        return copy


class _RankTables(dict):
    """Side -> rank table, each built on its first lookup. Every entry is
    an int: a row ranks an unlisted counterpart at its width.

    A side's source is its lists and their width or, for the side a
    with_prefs copy shares, the original's _RankTables, where the lookup
    goes: whichever category reads that side first builds it, once. Neither
    holds a category, so a category and its tables form no reference cycle
    and are freed by reference counting alone.
    """

    def __init__(self, sources: dict[str, tuple[tuple, int] | _RankTables]):
        super().__init__()
        self._sources = sources

    def __missing__(self, side: str) -> list[array | list[int]]:
        source = self._sources[side]
        if isinstance(source, _RankTables):
            table = self[side] = source[side]
            return table
        prefs, width = source
        # Every rank is taken from one shared list, so the tables hold
        # references to the same int objects rather than one int per entry.
        ints = list(range(width))
        # A full row's ranks are 0 .. width - 1: they fit 2-byte unsigned
        # slots up to width 65536. Packing the built list through one
        # Struct is about 3x faster than array("H", table).
        pack = Struct(f"{width}H").pack if width <= 1 << 16 else None
        tables = []
        for row in prefs:
            table = [width] * width
            for rank, counterpart in zip(ints, row):
                table[counterpart] = rank
            if pack is not None and len(row) == width:
                table = array("H", pack(*table))
            tables.append(table)
        self[side] = tables
        return tables


# The categories, in index order, and the list mode.
Market = namedtuple("Market", "categories mode", defaults=(FULL,))


def _check_prefs(cm: CategoryMarket, side: str, mode: str, out: list[str]) -> None:
    prefs = cm.prefs(side)
    size, width = len(cm.hospitals(side)), len(cm.hospitals(opposite(side)))

    def agent(a: int, of: str = side) -> AgentId:
        # Built only to word a violation.
        return AgentId(of, cm.category, a)

    for a, label in enumerate(cm.hospitals(side)):
        if not isinstance(label, str):
            out.append(f"{agent(a)!r}: hospital label {label!r} is not a str")
    if len(prefs) != size:
        out.append(
            f"category {cm.category}: {size} {side}s but "
            f"{len(prefs)} preference lists"
        )
        return
    full = mode == FULL
    for a, row in enumerate(prefs):
        if not isinstance(row, tuple):
            out.append(f"{agent(a)!r}: preference list {row!r} is not a tuple")
            continue
        seen = set()
        for entry in row:
            # An ordinal is an int but not a bool: IntEnum members pass, True
            # does not.
            if not isinstance(entry, int) or isinstance(entry, bool):
                out.append(f"{agent(a)!r}: entry {entry!r} is not an int ordinal")
            elif not 0 <= entry < width:
                out.append(f"{agent(a)!r}: entry {entry!r} is not on the opposite roster")
            elif entry in seen:
                out.append(f"{agent(a)!r}: duplicate entry {agent(entry, opposite(side))!r}")
            else:
                seen.add(entry)
        if full and len(seen) < width:
            out.append(
                f"{agent(a)!r}: list covers {len(seen)} of {width} "
                "counterparts in full-preference mode"
            )


def validate_market(market: Market) -> list[str]:
    """Return all structural violations; an empty list means the market is valid."""
    violations: list[str] = []
    if market.mode not in MODES:
        violations.append(f"unknown mode {market.mode!r}")
    for pos, cm in enumerate(market.categories):
        # bool and float indices equal to pos are still not indices.
        if type(cm.category) is not int or cm.category != pos:
            violations.append(
                f"category index {cm.category} at position {pos}: "
                "indices must be contiguous from 0"
            )
    for cm in market.categories:
        _check_prefs(cm, PATIENT, market.mode, violations)
        _check_prefs(cm, DOCTOR, market.mode, violations)
    return violations


def category_from_rankings(
    category: int,
    patient_rankings: list[list[int]],
    doctor_rankings: list[list[int]],
    patient_hospitals: list[str] | None = None,
    doctor_hospitals: list[str] | None = None,
) -> CategoryMarket:
    """Build a CategoryMarket from ordinal ranking lists (0-based).

    Each side's hospital list, when given, needs one label per ranking.
    """
    n, m = len(patient_rankings), len(doctor_rankings)
    if patient_hospitals is None:
        patient_hospitals = [f"h{i + 1}" for i in range(n)]
    if doctor_hospitals is None:
        doctor_hospitals = [f"H{i + 1}" for i in range(m)]
    for side, hospitals, count in (
        (PATIENT, patient_hospitals, n),
        (DOCTOR, doctor_hospitals, m),
    ):
        if len(hospitals) != count:
            raise ValueError(
                f"{len(hospitals)} {side} hospitals for {count} {side} rankings"
            )
        # The wire format holds only str labels: load_market would refuse any other.
        for pos, label in enumerate(hospitals):
            if not isinstance(label, str):
                raise ValueError(
                    f"category {category}: {side} hospital label {label!r} "
                    f"at position {pos} is not a str"
                )
    return CategoryMarket(
        category,
        tuple(patient_hospitals),
        tuple(doctor_hospitals),
        tuple(map(tuple, patient_rankings)),
        tuple(map(tuple, doctor_rankings)),
    )


def market_from_rankings(
    patient_rankings: list[list[int]],
    doctor_rankings: list[list[int]],
    mode: str = FULL,
    **kwargs,
) -> Market:
    """Single-category convenience wrapper around category_from_rankings."""
    cm = category_from_rankings(0, patient_rankings, doctor_rankings, **kwargs)
    return Market((cm,), mode)


@cache
def _sample_plan(n: int, k: int) -> tuple[tuple[int, int], ...] | None:
    """How Random.sample(population, k) draws from n items: None for its
    set branch; for its pool branch, one (bits, last) pair per draw, last
    running from n - 1 down to n - k and bits = (last + 1).bit_length(),
    the width of _randbelow(last + 1)'s getrandbits calls.

    The standard library takes the pool branch when an n-item list is
    smaller than a k-item set.
    """
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    if n > setsize:
        return None
    return tuple(((last + 1).bit_length(), last) for last in range(n - 1, n - k - 1, -1))


def _sampler(rng: random.Random):
    """Return sample(population, k), CPython's Random.sample algorithm with
    rng.getrandbits bound once, the _randbelow rejection loop inlined and
    the branch and each draw's width read from the cached _sample_plan(n, k).

    Draw for draw it makes the same getrandbits calls as Random.sample, so
    it returns the same items, as a tuple, and leaves rng in the same state.
    """
    getrandbits = rng.getrandbits

    def sample(population, k: int) -> tuple:
        n = len(population)
        if not 0 <= k <= n:
            raise ValueError("Sample larger than population or is negative")
        plan = _sample_plan(n, k)
        if plan is not None:
            # Pool branch: each draw picks below the unselected prefix
            # pool[:last + 1] and swaps the pick into pool[last]. The picks
            # fill the tail, last first, so the sample is the tail reversed.
            pool = list(population)
            for bits, last in plan:
                j = getrandbits(bits)
                while j > last:
                    j = getrandbits(bits)
                pool[j], pool[last] = pool[last], pool[j]
            return tuple(pool[-1 : -k - 1 : -1])
        # Set branch: redraw an index below n until it is unselected.
        bits = n.bit_length()
        result = []
        append = result.append
        selected = set()
        add = selected.add
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            add(j)
            append(population[j])
        return tuple(result)

    return sample


def generate_random_market(
    k: int,
    n_patients: int,
    n_doctors: int,
    list_length: int | None = None,
    seed: int | str = 0,
) -> Market:
    """Generate a market with uniformly random preference lists.

    When list_length is None every agent ranks the entire opposite roster
    (full-preference mode); otherwise every agent ranks a uniformly random
    subset of exactly list_length counterparts, in uniformly random order.
    Identical seeds produce identical markets.
    """
    if k < 0 or n_patients < 0 or n_doctors < 0:
        raise ValueError("counts must be non-negative")
    if list_length is not None:
        if list_length > n_doctors or list_length > n_patients:
            raise ValueError(
                f"list_length {list_length} exceeds a roster size "
                f"({n_patients} patients, {n_doctors} doctors)"
            )
        if list_length < 0:
            raise ValueError("list_length must be non-negative")
    p_len = n_doctors if list_length is None else list_length
    d_len = n_patients if list_length is None else list_length
    # Both populations slice one shared list, so every list entry references
    # the same int objects rather than one int per entry.
    ints = list(range(max(n_patients, n_doctors)))
    doctor_ints, patient_ints = ints[:n_doctors], ints[:n_patients]
    # Every category shares one label tuple per side.
    patient_hospitals = tuple(f"h{i + 1}" for i in range(n_patients))
    doctor_hospitals = tuple(f"H{j + 1}" for j in range(n_doctors))
    categories = []
    for ci in range(k):
        sample = _sampler(random.Random(f"{seed}:gen:{ci}"))
        # A sample is a uniformly random ordered subset: subset choice and
        # permutation in one draw.
        patient_prefs = tuple(sample(doctor_ints, p_len) for _ in range(n_patients))
        doctor_prefs = tuple(sample(patient_ints, d_len) for _ in range(n_doctors))
        categories.append(
            CategoryMarket(ci, patient_hospitals, doctor_hospitals, patient_prefs, doctor_prefs)
        )
    mode = FULL if list_length is None else PARTIAL
    return Market(tuple(categories), mode)


def perturb_preferences(market: Market, side: str, q: float, seed: int | str = 0) -> Market:
    """Independently per agent on side, with probability q replace its
    ranking by a fresh uniform permutation of the same entries. Deterministic
    per seed; q=0 returns the input unchanged. Raises ValueError for an
    unknown side, even at q=0, or a q outside [0, 1].
    """
    if side not in SIDES:
        raise ValueError(f"unknown side {side!r}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"deviation probability {q} outside [0, 1]")
    if q == 0.0:
        return market
    categories = []
    for cm in market.categories:
        rng = random.Random(f"{seed}:perturb:{cm.category}")
        sample = _sampler(rng)
        lists = tuple(
            sample(row, len(row)) if rng.random() < q else row for row in cm.prefs(side)
        )
        categories.append(cm.with_prefs(side, lists))
    return Market(tuple(categories), market.mode)


def _layout(brackets: str, items: list[str], indent: str) -> str:
    """items, each already JSON text, inside brackets ("[]" or "{}") as
    json.dumps(indent=2) lays them out at the depth of indent: one item a
    line, a step deeper; no items give the bare brackets.
    """
    if not items:
        return brackets
    step = "\n" + indent + "  "
    return f"{brackets[0]}{step}{(',' + step).join(items)}\n{indent}{brackets[1]}"


def store_market(market: Market) -> bytes:
    """Serialize a market to the canonical JSON document.

    The bytes are those of json.dumps(doc, indent=2) on the document's
    nested dicts, written directly: each label is quoted once and each
    array or object is one join, so no document tree is built and the
    standard library's pure-Python indent encoder never runs.

    Raises ValueError with validate_market's first violation for a market
    that is not valid, and so could be written in a form load_market
    refuses or reads back as another market.
    """
    violations = validate_market(market)
    if violations:
        raise ValueError(violations[0])
    categories = []
    for cm in market.categories:
        # Each agent's AgentId.label, quoted: ASCII that needs no escape.
        ids = {
            side: [f'"{side[0]}{a}"' for a in range(1, len(cm.hospitals(side)) + 1)]
            for side in SIDES
        }
        fields = [f'"index": {json.dumps(cm.category)}']
        for side in SIDES:
            entries = [
                _layout("{}", [f'"id": {i}', f'"hospital": {json.dumps(h)}'], " " * 8)
                for i, h in zip(ids[side], cm.hospitals(side))
            ]
            fields.append(f'"{side}s": ' + _layout("[]", entries, " " * 6))
        for side in SIDES:
            targets = ids[opposite(side)]
            lists = [
                f"{i}: " + _layout("[]", list(map(targets.__getitem__, row)), " " * 8)
                for i, row in zip(ids[side], cm.prefs(side))
            ]
            fields.append(f'"{side}_prefs": ' + _layout("{}", lists, " " * 6))
        categories.append(_layout("{}", fields, " " * 4))
    doc = [
        f'"mode": {json.dumps(market.mode)}',
        '"categories": ' + _layout("[]", categories, "  "),
    ]
    return _layout("{}", doc, "").encode("utf-8")


def _require(doc: dict, key: str, kind, path: str):
    if not isinstance(doc, dict):
        raise MarketFormatError("expected an object", path)
    if key not in doc:
        raise MarketFormatError(f"missing required field {key!r}", path)
    value = doc[key]
    # bool is a subclass of int, but JSON true/false is never a number.
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise MarketFormatError(
            f"field {key!r} must be {kind.__name__}", f"{path}.{key}"
        )
    return value


def _load_roster(doc: dict, key: str, path: str) -> tuple[tuple[str, ...], dict[str, int]]:
    """The roster's hospital labels and each agent's id mapped to its
    ordinal, in roster order."""
    hospitals = []
    ordinals = {}
    for pos, entry in enumerate(_require(doc, key, list, path)):
        epath = f"{path}.{key}[{pos}]"
        ident = _require(entry, "id", str, epath)
        hospital = entry.get("hospital", "")
        if not isinstance(hospital, str):
            raise MarketFormatError("field 'hospital' must be str", epath)
        if ident in ordinals:
            raise MarketFormatError(f"duplicate agent id {ident!r}", epath)
        ordinals[ident] = pos
        hospitals.append(hospital)
    return tuple(hospitals), ordinals


def _load_prefs(
    doc: dict,
    key: str,
    owners: dict[str, int],
    targets: dict[str, int],
    full: bool,
    path: str,
) -> tuple[tuple[int, ...], ...]:
    """Each owner's list, in roster order, as target roster ordinals."""
    table = _require(doc, key, dict, path)
    prefs = []
    resolve = targets.__getitem__
    for ident in owners:
        ppath = f"{path}.{key}.{ident}"
        if ident not in table:
            raise MarketFormatError(f"missing preference list for {ident!r}", ppath)
        ranking = table[ident]
        if not isinstance(ranking, list):
            raise MarketFormatError("preference list must be an array", ppath)
        try:
            row = tuple(map(resolve, ranking))
        except (KeyError, TypeError):
            # Not every entry is a known id (an unhashable one raises
            # TypeError): name the first that is not.
            bad = next(e for e in ranking if not isinstance(e, str) or e not in targets)
            raise MarketFormatError(f"unknown agent id {bad!r}", ppath) from None
        if len(set(row)) < len(row):
            seen = set()
            repeat = next(e for e in ranking if e in seen or seen.add(e))
            raise MarketFormatError(f"duplicate agent id {repeat!r}", ppath)
        if full and len(row) < len(targets):
            msg = f"list covers {len(row)} of {len(targets)} counterparts in full-preference mode"
            raise MarketFormatError(msg, ppath)
        prefs.append(row)
    # Every owner has a list, so any further key names no agent.
    if len(table) > len(owners):
        stray = next(ident for ident in table if ident not in owners)
        raise MarketFormatError(f"unknown agent id {stray!r}", f"{path}.{key}.{stray}")
    return tuple(prefs)


def load_market(data: bytes | str) -> Market:
    """Parse the canonical JSON document; unknown extra fields are ignored.
    The first fault is refused where it is read, at its JSON path."""
    try:
        doc = json.loads(data)
    except RecursionError:
        raise MarketFormatError("invalid JSON: document is nested too deeply") from None
    except UnicodeDecodeError as exc:
        raise MarketFormatError(f"undecodable text: {exc}", "$") from exc
    except ValueError as exc:
        # JSONDecodeError, or an integer literal past the interpreter's
        # digit limit for int conversion.
        raise MarketFormatError(f"invalid JSON: {exc}") from exc
    mode = _require(doc, "mode", str, "$")
    if mode not in MODES:
        raise MarketFormatError(f"mode must be one of {MODES}", "$.mode")
    raw_categories = _require(doc, "categories", list, "$")
    categories = []
    full = mode == FULL
    for pos, raw in enumerate(raw_categories):
        path = f"$.categories[{pos}]"
        index = _require(raw, "index", int, path)
        if index != pos:
            msg = f"category index {index} at position {pos}: indices must be contiguous from 0"
            raise MarketFormatError(msg, f"{path}.index")
        # Each id maps to one int object, so equal entries share it.
        p_hospitals, p_ordinals = _load_roster(raw, "patients", path)
        d_hospitals, d_ordinals = _load_roster(raw, "doctors", path)
        patient_prefs = _load_prefs(raw, "patient_prefs", p_ordinals, d_ordinals, full, path)
        doctor_prefs = _load_prefs(raw, "doctor_prefs", d_ordinals, p_ordinals, full, path)
        categories.append(
            CategoryMarket(index, p_hospitals, d_hospitals, patient_prefs, doctor_prefs)
        )
    return Market(tuple(categories), mode)
