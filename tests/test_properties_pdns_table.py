"""Differential property tests: columnar pDNS table vs the row path.

Arbitrary observation histories — several rrnames across registered
domains (including a multi-label co.uk suffix and an irregular,
unparsable owner name), all record types, overlapping date spans — are
aggregated into a :class:`PassiveDNSDatabase`, and every query the
inspection stage makes is answered twice: through the
:class:`~repro.pdns.table.PdnsTable` CSR kernels and through the
linear scans of :class:`tests.reference.LinearPdns`.  The answers must be
identical, including ordering.  The suite also pins the io round-trip
and the ``select()`` re-interning invariant (a degraded view's ids equal
a fresh build's) that make table row ids safe cache currency.
"""

from datetime import date, timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.records import RRType
from repro.io.datasets import load_pdns, save_pdns
from repro.net.timeline import DateInterval
from repro.pdns.database import PassiveDNSDatabase
from repro.pdns.table import PdnsTable
from tests.reference import LinearPdns

BASE = date(2019, 1, 1)

#: Owner names spanning the tricky cases: plain subdomains, an apex, a
#: multi-label public suffix (beta.co.uk), and an irregular name whose
#: registered domain is unparsable (empty label) — the linear path
#: happily aggregates it, so the table must answer for it too.
RRNAMES = (
    "www.alpha.com",
    "ns1.alpha.com",
    "alpha.com",
    "login.beta.co.uk",
    "beta.co.uk",
    "bad..name",
)
RTYPES = (RRType.A, RRType.NS, RRType.CNAME)
RDATA = ("10.0.0.1", "10.0.0.2", "ns.evil.net", "ns.good.org")

# One observation run: (rrname, rtype, rdata, first day index, span).
_observation = st.tuples(
    st.integers(min_value=0, max_value=len(RRNAMES) - 1),
    st.integers(min_value=0, max_value=len(RTYPES) - 1),
    st.integers(min_value=0, max_value=len(RDATA) - 1),
    st.integers(min_value=0, max_value=90),
    st.integers(min_value=1, max_value=30),
)
_history = st.lists(_observation, min_size=1, max_size=20)

_window = st.one_of(
    st.none(),
    st.tuples(
        st.integers(min_value=0, max_value=100),
        st.one_of(st.none(), st.integers(min_value=0, max_value=120)),
    ),
)


def _database_from(history) -> PassiveDNSDatabase:
    db = PassiveDNSDatabase()
    for name_sel, rtype_sel, rdata_sel, start, span in history:
        day = BASE + timedelta(days=start)
        db.add_observation(RRNAMES[name_sel], RTYPES[rtype_sel], RDATA[rdata_sel], day)
        db.add_observation(
            RRNAMES[name_sel],
            RTYPES[rtype_sel],
            RDATA[rdata_sel],
            day + timedelta(days=span),
        )
    return db


def _interval(window) -> DateInterval | None:
    if window is None:
        return None
    start, end = window
    return DateInterval(
        BASE + timedelta(days=start),
        None if end is None else BASE + timedelta(days=max(start, end)),
    )


def _keyed(records):
    return [
        (r.rrname, r.rtype, r.rdata, r.first_seen, r.last_seen, r.count)
        for r in records
    ]


class TestQueryEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(_history, _window)
    def test_query_name_matches_linear(self, history, window):
        """Same rows either way, and the table's order satisfies the
        documented ``(first_seen, rdata)`` sort.  That key leaves
        cross-rtype ties unordered, so tie order is compared as a
        multiset, not positionally."""
        db = _database_from(history)
        linear = LinearPdns(db)
        interval = _interval(window)
        for rrname in RRNAMES:
            for rtype in (None, *RTYPES):
                via_table = _keyed(db.query_name(rrname, rtype, interval))
                via_linear = _keyed(linear.query_name(rrname, rtype, interval))
                assert sorted(map(repr, via_table)) == sorted(map(repr, via_linear))
                sort_keys = [(first, rdata) for _, _, rdata, first, _, _ in via_table]
                assert sort_keys == sorted(sort_keys)

    @settings(max_examples=50, deadline=None)
    @given(_history, _window)
    def test_query_domain_matches_linear(self, history, window):
        """The per-domain CSR slice (plus the irregular-row merge) equals
        the linear suffix scan, for subdomain, apex, multi-label-suffix,
        and bare-public-suffix queries alike."""
        db = _database_from(history)
        linear = LinearPdns(db)
        interval = _interval(window)
        for query in (
            "www.alpha.com",
            "alpha.com",
            "login.beta.co.uk",
            "beta.co.uk",
            "co.uk",          # bare public suffix: owner-name scan
            "missing.example.org",
        ):
            via_table = _keyed(db.query_domain(query, interval))
            via_linear = _keyed(linear.query_domain(query, interval))
            assert sorted(map(repr, via_table)) == sorted(map(repr, via_linear))
            sort_keys = [
                (rrname, first, rdata)
                for rrname, _, rdata, first, _, _ in via_table
            ]
            assert sort_keys == sorted(sort_keys)

    @settings(max_examples=30, deadline=None)
    @given(_history)
    def test_histories_toggle_identically(self, history):
        """a_history / ns_history answer identically to the linear scans,
        positionally (one rrname and rtype never tie)."""
        db = _database_from(history)
        legacy = LinearPdns(_database_from(history))
        for rrname in RRNAMES:
            assert _keyed(db.a_history(rrname)) == _keyed(legacy.a_history(rrname))
            if rrname != "bad..name":  # ns_history resolves a registered domain
                assert _keyed(db.ns_history(rrname)) == _keyed(
                    legacy.ns_history(rrname)
                )


class TestRowEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(_history)
    def test_row_dicts_match_all_records(self, history):
        """The canonical column walk equals the aggregated record list —
        same rows, same (rrname, rtype, rdata) order, same aggregates."""
        db = _database_from(history)
        expected = [
            {
                "rrname": r.rrname,
                "rtype": r.rtype.value,
                "rdata": r.rdata,
                "first": r.first_seen.toordinal(),
                "last": r.last_seen.toordinal(),
                "count": r.count,
            }
            for r in db.all_records()
        ]
        assert list(db.table.row_dicts()) == expected

    @settings(max_examples=50, deadline=None)
    @given(_history)
    def test_row_of_inverts_record(self, history):
        db = _database_from(history)
        table = db.table
        for row in range(len(table)):
            record = table.record(row)
            assert table.row_of(record.rrname, record.rtype, record.rdata) == row

    @settings(max_examples=50, deadline=None)
    @given(_history)
    def test_table_rebuilds_after_growth(self, history):
        """Adding observations invalidates the lazy table (version bump):
        queries never answer from a stale snapshot."""
        db = _database_from(history)
        before = len(db.table)
        db.add_observation("late.alpha.com", RRType.A, "10.9.9.9", BASE)
        assert len(db.table) != before or any(
            r["rrname"] == "late.alpha.com" for r in db.table.row_dicts()
        )
        assert _keyed(db.query_name("late.alpha.com")) == _keyed(
            LinearPdns(db).query_name("late.alpha.com")
        )


class TestDegradedRebuild:
    @settings(max_examples=50, deadline=None)
    @given(_history, st.sets(st.integers(min_value=0, max_value=120), max_size=4))
    def test_blackout_view_interns_like_fresh_build(self, history, dark_days):
        """The fault path (without_windows) produces a database whose
        table columns and pool ids equal a table freshly built from the
        surviving aggregates — the cache-safety invariant."""
        db = _database_from(history)
        blackouts = [
            DateInterval(BASE + timedelta(days=d), BASE + timedelta(days=d + 6))
            for d in sorted(dark_days)
        ]
        degraded = db.without_windows(blackouts)
        rebuilt = PdnsTable.from_records(degraded.all_records())
        assert list(degraded.table.row_dicts()) == list(rebuilt.row_dicts())
        for column in ("rrname_id", "rtype_code", "rdata_id", "first_ord", "last_ord"):
            assert getattr(degraded.table, column) == getattr(rebuilt, column)
        assert degraded.table.rrnames == rebuilt.rrnames
        assert degraded.table.rdatas == rebuilt.rdatas

    @settings(max_examples=50, deadline=None)
    @given(_history, st.integers(min_value=1, max_value=3))
    def test_select_reinterns_like_fresh_build(self, history, keep_mod):
        """select() over any row subset re-interns in first-seen order, so
        a derived table equals one built from the surviving records —
        including after a second derivation (double degradation)."""
        db = _database_from(history)
        table = db.table
        kept = [row for row in range(len(table)) if row % keep_mod == 0]
        derived = table.select(kept)
        rebuilt = PdnsTable.from_records([table.record(r) for r in kept])
        assert list(derived.row_dicts()) == list(rebuilt.row_dicts())
        assert derived.rrnames == rebuilt.rrnames
        assert derived.rdatas == rebuilt.rdatas
        # Degrade the already-degraded view again: ids still canonical.
        again = derived.select(range(0, len(derived), 2))
        rebuilt_again = PdnsTable.from_records(
            [derived.record(r) for r in range(0, len(derived), 2)]
        )
        assert list(again.row_dicts()) == list(rebuilt_again.row_dicts())
        assert again.rrnames == rebuilt_again.rrnames


class TestIORoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(_history)
    def test_save_load_preserves_columns_and_queries(self, tmp_path_factory, history):
        db = _database_from(history)
        path = tmp_path_factory.mktemp("pdns") / "pdns.jsonl"
        save_pdns(db, path)
        loaded = load_pdns(path)
        assert list(loaded.table.row_dicts()) == list(db.table.row_dicts())
        assert loaded.table.rrnames == db.table.rrnames
        assert loaded.table.rdatas == db.table.rdatas
        for rrname in RRNAMES:
            assert _keyed(loaded.query_name(rrname)) == _keyed(db.query_name(rrname))


class TestPickleRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(_history)
    def test_worker_rebuild_interns_identical_ids(self, history):
        """Pickling drops the table; the receiving process's lazy rebuild
        interns identical ids (the worker-result safety invariant)."""
        import pickle

        db = _database_from(history)
        original_rows = list(db.table.row_dicts())
        clone = pickle.loads(pickle.dumps(db))
        assert clone._table is None
        assert list(clone.table.row_dicts()) == original_rows
        assert clone.table.rrname_id == db.table.rrname_id
        assert clone.table.rdata_id == db.table.rdata_id
