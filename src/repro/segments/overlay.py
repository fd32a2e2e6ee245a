"""Overlay extension of an indexed scan table with appended rows.

An epoch delta appends new scan observations to an existing (possibly
mmap-backed) table.  Rebuilding the table from the concatenated row
stream would intern every pool value and re-sort every domain's rows
again — O(dataset) work for an O(delta) change.  The overlay exploits
two invariants of the columnar design instead:

* **Interning is append-stable.**  Pool ids are assigned in
  first-appearance order over the row stream, so appending rows *after*
  the base rows preserves every base id verbatim; only genuinely new
  values get new (higher) ids.  The overlay pre-seeds a
  :class:`~repro.scan.table._TableBuilder` with the base pools and lets
  it intern the appended rows normally.
* **The CSR index is domain-local.**  A domain's CSR slice depends only
  on that domain's own rows, and row indices never shift (the delta
  lands strictly after the base), so every *clean* domain's slice is
  copied from the base index with a constant offset shift; only domains
  the delta actually touches are re-merged and re-sorted.

The result is a plain in-RAM :class:`ScanTable` that is **identical**
— pools, ids, columns, CSR arrays, pickled wire form, block digests —
to a table rebuilt from the concatenated rows.  The differential
property suite (``tests/test_properties_epochs.py``) pins exactly that
equivalence, which is what makes the epoch engine's reuse of base
products sound rather than heuristic.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, Sequence

from repro.scan.table import ScanTable, _TableBuilder

#: ``(pool attribute, interner attribute)`` pairs whose seeded keys are
#: the pool values themselves (certificates are keyed by fingerprint
#: and handled separately).
_SEEDED_POOLS = (
    ("ips", "_ips"),
    ("asns", "_asns"),
    ("countries", "_countries"),
    ("port_sets", "_ports"),
    ("name_sets", "_names"),
    ("base_sets", "_bases"),
)


def _copy_array(value) -> array:
    """A mutable ``array`` copy of a column (array or mmap memoryview)."""
    if isinstance(value, array):
        return array(value.typecode, value)
    out = array(value.format)
    out.frombytes(value.cast("B"))
    return out


def _seed(interner, values: list) -> None:
    """Point an interner at an existing pool so new values append to it."""
    interner.values = values
    interner._ids = dict(zip(values, range(len(values))))


def extend_scan_table(base: ScanTable, rows: Iterable[Sequence]) -> ScanTable:
    """The table for ``base``'s rows followed by ``rows``, via overlay.

    ``rows`` are :meth:`_TableBuilder.append_row` argument tuples —
    ``(date_ordinal, ip, asn, certificate, country, ports, names,
    base_domains, trusted, sensitive)`` — exactly what an epoch delta
    carries.  The base (in-RAM or segment-backed) is not modified.
    """
    derived = ScanTable()
    # Row columns copy verbatim: the delta appends, never rewrites.
    derived.date_ord = _copy_array(base.date_ord)
    derived.ip_id = _copy_array(base.ip_id)
    derived.asn_id = _copy_array(base.asn_id)
    derived.cert_id = _copy_array(base.cert_id)
    derived.country_id = _copy_array(base.country_id)
    derived.ports_id = _copy_array(base.ports_id)
    derived.names_id = _copy_array(base.names_id)
    derived.bases_id = _copy_array(base.bases_id)
    derived.flags = _copy_array(base.flags)
    # Pools materialize as mutable lists (a segment base's lazy views
    # decode here, once); the builder's interners then share these very
    # lists, so appending a delta row extends them in place.
    derived.ips = list(base.ips)
    derived.ip_ints = _copy_array(base.ip_ints)
    derived.asns = list(base.asns)
    derived.cert_fps = list(base.cert_fps)
    derived.certs = list(base.certs)
    derived.countries = list(base.countries)
    derived.port_sets = list(base.port_sets)
    derived.name_sets = list(base.name_sets)
    derived.base_sets = list(base.base_sets)

    builder = _TableBuilder(derived)
    for pool_name, interner_name in _SEEDED_POOLS:
        _seed(getattr(builder, interner_name), getattr(derived, pool_name))
    _seed(builder._certs, derived.cert_fps)

    n_base = len(base.date_ord)
    for row in rows:
        builder.append_row(*row)

    # Adopt pools exactly like ``finish()`` — they are already the
    # table's own lists — but splice the CSR index instead of rebuilding.
    derived.ips = builder._ips.values
    derived.asns = builder._asns.values
    derived.cert_fps = builder._certs.values
    derived.countries = builder._countries.values
    derived.port_sets = builder._ports.values
    derived.name_sets = builder._names.values
    derived.base_sets = builder._bases.values

    base_cache = getattr(base, "_rec_cache", None) or []
    derived._rec_cache = list(base_cache) + [None] * (len(derived.date_ord) - len(base_cache))

    _splice_index(derived, base, n_base)
    _seed_block_digests(derived, base, n_base)
    return derived


def _splice_index(derived: ScanTable, base: ScanTable, n_base: int) -> None:
    """Build the CSR index by copying clean base slices and re-merging
    only the domains the appended rows touch.

    Equivalence with ``_build_index`` over the full row stream: a
    domain's rows sort by ``(date, ip string)`` with ties broken by row
    index (the sort is stable over index-ordered buckets).  A clean
    domain's base slice already *is* that order — indices unshifted —
    and a dirty domain's merge list (base slice, then new rows in index
    order) stably re-sorts to it.  Comparing ip *strings* equals
    comparing the rebuild's precomputed string ranks.
    """
    date_ord = derived.date_ord
    ip_id_col = derived.ip_id
    ips = derived.ips

    new_buckets: dict[str, list[int]] = {}
    bases_id = derived.bases_id
    base_sets = derived.base_sets
    for row in range(n_base, len(date_ord)):
        for name in base_sets[bases_id[row]]:
            bucket = new_buckets.get(name)
            if bucket is None:
                new_buckets[name] = [row]
            else:
                bucket.append(row)

    base_domains = base.domains
    # Clean runs break only at the base domains the delta touches and at
    # the sorted slot of each new-only domain, so the walk visits those
    # O(delta) positions and copies everything between them wholesale.
    touched_at = {
        index: name
        for name in new_buckets
        if (index := base.domain_index(name)) is not None
    }
    new_only = sorted(set(new_buckets).difference(touched_at.values()))
    base_off = base.csr_off
    base_dd_off = base.dom_dates_off
    base_csr_rows = base.csr_rows
    base_csr_dates = base.csr_dates
    base_dom_dates = base.dom_dates

    domains: list[str] = []
    csr_rows = array("I")
    csr_dates = array("i")
    csr_off = array("I", [0])
    dom_dates = array("i")
    dom_dates_off = array("I", [0])

    def emit_merged(name: str, merged: list[int]) -> None:
        merged.sort(key=lambda r: (date_ord[r], ips[ip_id_col[r]]))
        csr_rows.extend(merged)
        previous = None
        for row in merged:
            ordinal = date_ord[row]
            csr_dates.append(ordinal)
            if ordinal != previous:
                dom_dates.append(ordinal)
                previous = ordinal
        csr_off.append(len(csr_rows))
        dom_dates_off.append(len(dom_dates))
        domains.append(name)

    def copy_clean(lo: int, hi: int) -> None:
        # A run of base domains [lo, hi) none of which the delta touches:
        # their concatenated CSR slices copy as raw bytes, offsets shift
        # by a constant.
        row_shift = len(csr_rows) - base_off[lo]
        date_shift = len(dom_dates) - base_dd_off[lo]
        csr_rows.frombytes(bytes_of(base_csr_rows, base_off[lo], base_off[hi]))
        csr_dates.frombytes(bytes_of(base_csr_dates, base_off[lo], base_off[hi]))
        dom_dates.frombytes(
            bytes_of(base_dom_dates, base_dd_off[lo], base_dd_off[hi])
        )
        csr_off.extend(map(row_shift.__add__, base_off[lo + 1 : hi + 1]))
        dom_dates_off.extend(map(date_shift.__add__, base_dd_off[lo + 1 : hi + 1]))
        domains.extend(base_domains[lo:hi])

    def bytes_of(column, lo: int, hi: int) -> bytes:
        view = column[lo:hi]
        return view.tobytes()

    slots = [bisect_left(base_domains, name) for name in new_only]
    next_new = 0
    i = 0
    for stop in sorted(set(touched_at).union(slots)):
        if i < stop:
            copy_clean(i, stop)
            i = stop
        # New-only domains sorting before this base domain slot in first.
        while next_new < len(new_only) and slots[next_new] == stop:
            emit_merged(new_only[next_new], list(new_buckets[new_only[next_new]]))
            next_new += 1
        name = touched_at.get(stop)
        if name is not None:
            merged = list(base_csr_rows[base_off[stop] : base_off[stop + 1]])
            merged.extend(new_buckets[name])
            emit_merged(name, merged)
            i = stop + 1
    if i < len(base_domains):
        copy_clean(i, len(base_domains))

    from repro.segments.pools import SortedPoolIndex

    derived.domains = tuple(domains)
    # The merge emits domains in sorted order, so the bisect index the
    # segment tables use works here too — and skips materializing a
    # population-sized dict for an O(delta) operation.  The pickled wire
    # form is unaffected (``__getstate__`` drops the index either way).
    derived._dom_index = SortedPoolIndex(derived.domains)
    derived.csr_rows = csr_rows
    derived.csr_dates = csr_dates
    derived.csr_off = csr_off
    derived.dom_dates = dom_dates
    derived.dom_dates_off = dom_dates_off


def _seed_block_digests(derived: ScanTable, base: ScanTable, n_base: int) -> None:
    """Extend the base's content-digest blocks with only the new rows.

    This is the cache-side half of the overlay: the merged dataset's
    fingerprint becomes an O(delta) computation (every full base block's
    digest is reused), so epoch runs pay for what changed, not for what
    they carried over.
    """
    from repro.cache.fingerprint import (
        SCAN_BLOCK_ROWS,
        extended_block_digests,
        scan_block_digests,
    )

    base_digests = scan_block_digests(base)
    derived._repro_block_digests = (
        SCAN_BLOCK_ROWS,
        extended_block_digests(derived, base_digests, n_base),
    )


__all__ = ["extend_scan_table"]
