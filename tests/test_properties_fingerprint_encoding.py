"""Differential properties: the columnar/one-pass encoders vs the oracle.

Cache fingerprints and segment headers must stay byte-identical to what
the two-pass encoder produced (``tests/reference.py``: ``jsonable`` then
``canonical_json`` for values, one ``json.dumps`` per row dict for scan
blocks).  These suites hold the production encoders to it:

* :func:`canonical_encode` / :func:`value_digest` over arbitrary nested
  values — escapes, non-ASCII, enums, dates, nested frozensets, floats,
  dicts whose keys prefix each other or are ints;
* :func:`walk_block_digests` over hypothesis-built scan tables around
  the block boundary, over the epoch overlay's tail, and over a
  segment-backed table whose pools are read back from the mapping;
* the overlay tail walk encodes only the pool entries its rows use.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import date, datetime

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.fingerprint import (
    SCAN_BLOCK_ROWS,
    canonical_encode,
    extended_block_digests,
    scan_block_digests,
    value_digest,
    walk_block_digests,
)
from repro.io.golden import canonical_json
from repro.scan.table import ScanTable
from repro.segments import open_scan_table, write_scan_table
from repro.segments.overlay import extend_scan_table
from repro.tls.certificate import Certificate
from tests import reference
from tests.reference import jsonable, scan_row_dicts

B = SCAN_BLOCK_ROWS

# -- values --------------------------------------------------------------------

#: Characters JSON must escape, plus non-ASCII that it must not.
_TRICKY = st.sampled_from(
    ['"', "\\", "\x00", "\x07", "\n", "\x1f", "\x7f", "\u2028", "\u2029", "é", "中", "\U0001f600"]
)
_text = st.text(
    alphabet=st.one_of(_TRICKY, st.characters(blacklist_categories=("Cs",))),
    max_size=8,
)


class _Color(enum.Enum):
    RED = 1
    BLUE = "b"


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


@dataclass(frozen=True)
class _Knob:
    name: str
    weight: float
    tags: frozenset


_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    _text,
    st.sampled_from(list(_Color) + list(_Level)),
    st.dates(),
    st.datetimes(),
)

_hashable = st.recursive(
    _scalar,
    lambda children: st.one_of(
        st.frozensets(children, max_size=4),
        st.tuples(children, children),
    ),
    max_leaves=8,
)

#: Keys where one is a prefix of another, and int keys next to str ones.
_keys = st.one_of(
    st.sampled_from(["a", "a!", "a\"", "ab", "", "__pairs__", 0, 1, -1, 10]),
    _text,
    st.integers(min_value=-5, max_value=5),
)

_value = st.recursive(
    _hashable,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_keys, children, max_size=4),
        st.sets(_hashable, max_size=4),
        st.builds(_Knob, _text, st.floats(), st.frozensets(_text, max_size=3)),
    ),
    max_leaves=16,
)


class TestValueEncoder:
    @settings(max_examples=300, deadline=None)
    @given(_value)
    def test_matches_convert_then_encode(self, value):
        assert canonical_encode(value) == canonical_json(jsonable(value))
        assert value_digest(value) == reference.value_digest(value)

    def test_known_shapes(self):
        cert = Certificate(
            serial=7,
            common_name="mail.example.org",
            sans=("mail.example.org", "ex \"ample.org"),
            issuer="Ünïcode CA",
            not_before=date(2019, 1, 1),
            not_after=date(2019, 4, 1),
        )
        for value in (
            cert,
            {"a": 1, "a!": 2, 1: "x", "1": "y"},
            {frozenset({1, 2}), frozenset({frozenset({"x"}), 3.5})},
            [datetime(2020, 1, 2, 3, 4, 5), date(2020, 1, 2)],
            (float("nan"), float("inf"), float("-inf"), -0.0, 1e300),
            {_Color.RED: [_Level.HIGH, True, None]},
        ):
            assert canonical_encode(value) == canonical_json(jsonable(value))

    def test_unsupported_types_raise_like_the_oracle(self):
        for value in (object(), b"bytes", {1: object()}):
            try:
                jsonable(value)
            except TypeError:
                pass
            else:  # pragma: no cover - the oracle rejects every case
                raise AssertionError(value)
            try:
                canonical_encode(value)
            except TypeError:
                continue
            raise AssertionError(f"{value!r} encoded")


# -- scan tables ---------------------------------------------------------------

_CERTS = (
    Certificate(
        serial=1, common_name="a.example", sans=("a.example",), issuer="CA",
        not_before=date(2019, 1, 1), not_after=date(2020, 1, 1),
    ),
    Certificate(
        serial=2, common_name="b.example", sans=("b.example",), issuer="CA",
        not_before=date(2019, 1, 1), not_after=date(2020, 1, 1),
        fingerprint="not-hex \"\\ é",
    ),
)

_str_sets = st.lists(_text, max_size=3).map(tuple)

#: One row, as ``ScanTable`` builder arguments.
_row = st.tuples(
    st.integers(min_value=date(2018, 1, 1).toordinal(), max_value=date(2021, 1, 1).toordinal()),
    _text,  # ip
    st.integers(min_value=-(2**40), max_value=2**40),  # asn
    st.sampled_from(_CERTS),
    _text,  # country
    st.lists(st.integers(min_value=0, max_value=65535), max_size=4).map(tuple),
    _str_sets,  # names
    _str_sets,  # base domains
    st.booleans(),
    st.booleans(),
)


def _build(rows) -> ScanTable:
    builder = ScanTable.build()
    for row in rows:
        builder.append_row(*row)
    return builder.finish()


def _cycle(rows: list, n: int) -> list:
    """``n`` rows cycling through ``rows`` (so blocks fill cheaply)."""
    return [rows[i % len(rows)] for i in range(n)] if rows else []


def _oracle(table: ScanTable) -> list[str]:
    return reference.block_digests(scan_row_dicts(table), B)


_boundary = st.sampled_from([0, 1, B - 1, B, B + 1, 2 * B + 3])


class TestScanBlockEncoder:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_row, min_size=1, max_size=12))
    def test_small_tables_match_row_oracle(self, rows):
        table = _build(rows)
        assert list(walk_block_digests(table)) == _oracle(table)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(_row, min_size=1, max_size=6), _boundary)
    def test_block_boundaries_match_row_oracle(self, rows, n_rows):
        table = _build(_cycle(rows, n_rows))
        assert list(walk_block_digests(table)) == _oracle(table)
        assert len(scan_block_digests(table)) == -(-n_rows // B)

    @settings(max_examples=12, deadline=None)
    @given(
        st.lists(_row, min_size=1, max_size=6),
        st.sampled_from([0, B - 1, B, B + 1]),
        st.lists(_row, max_size=6),
    )
    def test_overlay_tail_matches_row_oracle(self, rows, n_base, delta):
        base = _build(_cycle(rows, n_base))
        derived = extend_scan_table(base, delta)
        # The overlay seeded its digests from the base's plus a tail walk.
        assert list(scan_block_digests(derived)) == _oracle(derived)
        assert extended_block_digests(
            derived, scan_block_digests(base), n_base
        ) == scan_block_digests(derived)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(_row, min_size=1, max_size=10), st.sampled_from([5, B + 2]))
    def test_segment_pools_encode_like_ram_pools(self, tmp_path_factory, rows, n_rows):
        table = _build(_cycle(rows, n_rows))
        path = tmp_path_factory.mktemp("enc") / "scan.seg"
        write_scan_table(table, path)
        reopened = open_scan_table(path)
        expected = _oracle(table)
        assert reopened.segment.meta["block_digests"] == expected
        # Walk the mapped pools, not the digests seeded from the header.
        assert list(walk_block_digests(reopened)) == expected


class _CountingPool(Sequence):
    """A pool that counts how many entries are read from it."""

    def __init__(self, values) -> None:
        self.values = values
        self.reads = 0

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        self.reads += 1
        return self.values[index]


_POOLS = ("ips", "asns", "cert_fps", "countries", "port_sets", "name_sets", "base_sets")


def test_overlay_tail_encodes_only_referenced_pool_entries():
    """Extending a 2-block base with 3 rows encodes at most 3 entries per
    pool, however many entries the base's pools hold."""
    n_base = 2 * B
    base_rows = [
        (
            date(2019, 1, 1).toordinal() + i % 50,
            f"10.{i // 65536}.{i // 256 % 256}.{i % 256}",
            64500 + i,
            _CERTS[i % 2],
            f"C{i}",
            (443, i),
            (f"n{i}.example",),
            (f"d{i}.example",),
            i % 2 == 0,
            i % 3 == 0,
        )
        for i in range(n_base)
    ]
    base = _build(base_rows)
    delta = [base_rows[7], base_rows[9], (*base_rows[9][:1], "192.0.2.1", *base_rows[9][2:])]
    derived = extend_scan_table(base, delta)
    expected = scan_block_digests(derived)
    counters = {}
    for name in _POOLS:
        counters[name] = _CountingPool(getattr(derived, name))
        setattr(derived, name, counters[name])
    assert len(derived.ips) > n_base  # the pool is population-sized
    assert extended_block_digests(derived, scan_block_digests(base), n_base) == expected
    for name, pool in counters.items():
        assert pool.reads <= len(delta), (name, pool.reads)
