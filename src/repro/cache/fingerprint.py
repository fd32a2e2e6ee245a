"""Canonical fingerprints for the content-addressed stage cache.

A stage result may be reused only when *everything* that could change it
is byte-identical: the input bundle the stages consume (post
fault-degradation), the fault plan (seed and spec — worker faults are
keyed per chunk, so a different ``--fault-seed`` is a different run),
the pipeline configuration, and the identity + code version of every
stage up to and including the one being keyed.  All of that is folded
into one :func:`stage_fingerprint` through the
:func:`repro.io.golden.canonical_json` encoder, so fingerprints are
independent of dict insertion order, of the execution backend, and of
the process that computed them.

The input digest is *content*-addressed, not object-addressed: it walks
the datasets through their canonical row forms (the same shapes
``repro.io`` serializes), so a dataset loaded from disk and the dataset
that was saved fingerprint identically, while dropping a single scan
record — or degrading anything via a fault plan — changes the key.
Scan rows are encoded from the table's interned columns
(:func:`walk_block_digests`), every other value in one pass
(:func:`canonical_encode`); both write the bytes ``canonical_json``
writes over the row dicts and converted values, which
``tests/reference.py`` keeps as the oracle.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, is_dataclass
from datetime import date
from enum import Enum
from itertools import chain
from json.encoder import INFINITY as _INF
from json.encoder import encode_basestring as _encode_str
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.io.golden import canonical_json

if TYPE_CHECKING:
    from repro.core.pipeline import PipelineInputs
    from repro.faults.plan import FaultPlan

#: Global salt folded into every fingerprint; bump to invalidate every
#: cache entry at once (e.g. after a change to the entry format or the
#: digest scheme itself).
CACHE_SALT = "repro.cache/1"

#: Hex-digest length of a stage fingerprint (blake2b, 24 bytes).
_FINGERPRINT_BYTES = 24
_PART_BYTES = 16


def _encode_float(value: float) -> str:
    # json.dumps' float form: repr, with its non-finite spellings.
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def canonical_encode(value: Any) -> str:
    """The canonical JSON text of any fingerprintable value, in one pass.

    Dataclasses encode as their field dicts, enums as their names, dates
    and datetimes as ISO strings; sets and frozensets as lists sorted by
    their elements' encodings; dicts as ``{"__pairs__": [[key, value],
    ...]}`` sorted the same way (keys encoded too), which keeps digests
    independent of insertion order even for non-string keys.  Lists and
    tuples encode as lists; ``None``, bools, ints, floats and strings as
    ``json.dumps`` spells them.  The text is byte-identical to
    ``canonical_json`` over that converted form, built without the
    intermediate structures or a second walk to sort them.
    """
    kind = type(value)
    # Exact-type fast paths first; subclasses (IntEnum, namedtuples, ...)
    # take the ordered checks below.
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is float:
        return _encode_float(value)
    if kind is list or kind is tuple:
        return "[" + ",".join(map(canonical_encode, value)) + "]"
    if kind is dict:
        return _encode_pairs(value)
    if is_dataclass(value) and not isinstance(value, type):
        encoded = sorted(
            (f.name, canonical_encode(getattr(value, f.name))) for f in fields(value)
        )
        return "{" + ",".join(_encode_str(k) + ":" + v for k, v in encoded) + "}"
    if isinstance(value, Enum):
        return _encode_str(value.name)
    if isinstance(value, date):  # datetimes too
        return _encode_str(value.isoformat())
    if isinstance(value, (set, frozenset)):
        return "[" + ",".join(sorted(map(canonical_encode, value))) + "]"
    if isinstance(value, dict):
        return _encode_pairs(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(canonical_encode, value)) + "]"
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _encode_float(value)
    raise TypeError(f"cannot fingerprint value of type {type(value).__name__}")


def _encode_pairs(mapping: dict) -> str:
    pairs = sorted(
        "[" + canonical_encode(k) + "," + canonical_encode(v) + "]"
        for k, v in mapping.items()
    )
    return '{"__pairs__":[' + ",".join(pairs) + "]}"


def value_digest(value: Any) -> str:
    """Hex digest of an arbitrary value via its canonical encoding."""
    return hashlib.blake2b(
        canonical_encode(value).encode("utf-8"), digest_size=_PART_BYTES
    ).hexdigest()


class _Hasher:
    """Incremental digest over named canonical parts.

    Feeding part by part keeps the peak allocation at one row's
    canonical encoding instead of one string for the whole dataset.
    """

    def __init__(self) -> None:
        self._h = hashlib.blake2b(digest_size=_PART_BYTES)
        self._h.update(CACHE_SALT.encode("utf-8"))

    def feed(self, part: str, payload: Any) -> None:
        self._h.update(part.encode("utf-8"))
        self._h.update(b"\x00")
        self._h.update(canonical_json(payload).encode("utf-8"))
        self._h.update(b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _pdns_rows(pdns) -> list[dict[str, Any]]:
    rows = [
        {
            "rrname": r.rrname,
            "rtype": r.rtype.value,
            "rdata": r.rdata,
            "first": r.first_seen.isoformat(),
            "last": r.last_seen.isoformat(),
            "count": r.count,
        }
        for r in pdns.all_records()
    ]
    # The aggregate row set is the database's content; each key appears
    # once, so sorting makes the digest insertion-order independent.
    rows.sort(key=lambda r: (r["rrname"], r["rtype"], r["rdata"]))
    return rows


#: Rows per scan digest block.  The scan digest is a digest *of block
#: digests* rather than one flat hash over every row, so an epoch
#: overlay that appends rows to a base table re-digests only the base's
#: final partial block plus the appended rows (every full base block's
#: digest is reused verbatim) — O(delta) instead of O(dataset).
SCAN_BLOCK_ROWS = 4096

#: Rows encoded into one buffer per hasher update.  An eighth of a block
#: keeps the transient buffer near 150 KB, which matters on the epoch
#: path: its tail walk is at most a block plus the delta.
_ENCODE_ROWS = 512


class _Fragments(dict):
    """Lazy ``key -> encoded bytes`` memo: each key is encoded on first use."""

    __slots__ = ("_encode",)

    def __init__(self, encode) -> None:
        super().__init__()
        self._encode = encode

    def __missing__(self, key):
        fragment = self[key] = self._encode(key)
        return fragment


def walk_block_digests(table, start: int = 0) -> Iterator[str]:
    """Digest each ``SCAN_BLOCK_ROWS``-row block of ``table`` from ``start``.

    Blocks cover absolute row positions ``[k*B, (k+1)*B)`` in dataset
    order (``start`` is 0 or a block boundary).  A block's digest hashes
    its rows' canonical JSON objects — keys ``asn, base, cc, cert, d, ip,
    names, ports, sensitive, trusted`` in sorted order, a newline after
    each — so the digest sequence is a pure function of the row stream.

    The encoding works on the interned columns: each pool entry (an IP,
    an ASN, a port/name/base set, a certificate fingerprint, a country)
    and each scan date is encoded once, on first use, into a fragment
    that already carries its neighbouring key; a row is nine fragment
    lookups, and every ``_ENCODE_ROWS`` rows are hashed as one joined
    buffer.  Only the entries the walked rows reference are encoded, so a
    tail walk costs O(tail), and a segment-backed table decodes only
    those entries from its mapped pools.  Never reads the digest memo.
    """
    from repro.scan.table import _SENSITIVE, _TRUSTED

    def fragments(pool, before: str, after: str) -> _Fragments:
        return _Fragments(
            lambda i: (before + canonical_encode(pool[i]) + after).encode("utf-8")
        )

    columns = (
        (table.asn_id, fragments(table.asns, '{"asn":', ',"base":')),
        (table.bases_id, fragments(table.base_sets, "", ',"cc":')),
        (table.country_id, fragments(table.countries, "", ',"cert":')),
        (table.cert_id, fragments(table.cert_fps, "", ',"d":')),
        (
            table.date_ord,
            _Fragments(
                lambda o: ('"' + date.fromordinal(o).isoformat() + '","ip":').encode()
            ),
        ),
        (table.ip_id, fragments(table.ips, "", ',"names":')),
        (table.names_id, fragments(table.name_sets, "", ',"ports":')),
        (table.ports_id, fragments(table.port_sets, "", ',"sensitive":')),
        (
            table.flags,
            _Fragments(
                lambda f: (
                    ("true" if f & _SENSITIVE else "false")
                    + ',"trusted":'
                    + ("true" if f & _TRUSTED else "false")
                    + "}\n"
                ).encode()
            ),
        ),
    )
    n_rows = len(table)
    for block_lo in range(start, n_rows, SCAN_BLOCK_ROWS):
        block_hi = min(block_lo + SCAN_BLOCK_ROWS, n_rows)
        hasher = hashlib.blake2b(digest_size=_PART_BYTES)
        for lo in range(block_lo, block_hi, _ENCODE_ROWS):
            hi = min(lo + _ENCODE_ROWS, block_hi)
            rows = zip(*[map(memo.__getitem__, col[lo:hi]) for col, memo in columns])
            hasher.update(b"".join(chain.from_iterable(rows)))
        yield hasher.hexdigest()


def scan_block_digests(table) -> tuple[str, ...]:
    """A :class:`~repro.scan.table.ScanTable`'s per-block row digests,
    memoized on the table.

    The memo rides the table (tables are never mutated in place), which
    lets three producers share one representation: a cold walk here,
    the segment loader seeding digests persisted in the segment header,
    and the epoch overlay extending a base table's digests with only the
    appended rows.
    """
    memo = getattr(table, "_repro_block_digests", None)
    if memo is not None and memo[0] == SCAN_BLOCK_ROWS:
        return memo[1]
    digests = tuple(walk_block_digests(table))
    table._repro_block_digests = (SCAN_BLOCK_ROWS, digests)
    return digests


def extended_block_digests(
    table, base_digests: Sequence[str], n_base_rows: int
) -> tuple[str, ...]:
    """Block digests of ``table`` — base rows plus appended rows —
    reusing the base's digest for every *full* base block and re-walking
    only the base's trailing partial block plus the appended rows.

    This is the epoch overlay's O(delta) fingerprint path; the result is
    byte-identical to :func:`scan_block_digests` over the full table
    (the property suite holds it to that).
    """
    full = n_base_rows // SCAN_BLOCK_ROWS
    tail = tuple(walk_block_digests(table, start=full * SCAN_BLOCK_ROWS))
    return tuple(base_digests[:full]) + tail


def _memo_digest(obj: Any, build) -> str:
    """Memoize a content digest on the object that owns the content.

    Datasets are never mutated in place — fault degradation *derives*
    new objects (``scan.degraded``, ``pdns.without_windows``, …) — so a
    digest computed once is good for the object's lifetime.  Memoizing
    per component rather than per bundle matters because every
    ``run_pipeline`` call builds a fresh :class:`PipelineInputs` around
    the same long-lived datasets: the expensive content walk is paid on
    the first probe of a study, not on every run over it.
    """
    cached = getattr(obj, "_repro_content_digest", None)
    if cached is not None:
        return cached
    digest = build()
    try:
        object.__setattr__(obj, "_repro_content_digest", digest)
    except (AttributeError, TypeError):  # slots-only object: recompute
        pass
    return digest


def _scan_digest(scan) -> str:
    def build() -> str:
        hasher = _Hasher()
        hasher.feed(
            "scan.header",
            {
                "dates": [d.isoformat() for d in scan.scan_dates],
                "known_missing": sorted(
                    d.isoformat() for d in scan.known_missing_dates
                ),
            },
        )
        # The rows enter as per-block digests (see ``_block_digests``):
        # same content coverage as feeding every row, but an epoch
        # overlay can produce the block list incrementally.
        hasher.feed(
            "scan.blocks",
            {
                "block_rows": SCAN_BLOCK_ROWS,
                "digests": list(scan_block_digests(scan.table)),
            },
        )
        return hasher.hexdigest()

    return _memo_digest(scan, build)


def inputs_digest(inputs: PipelineInputs) -> str:
    """Content digest of everything the pipeline stages consume.

    Fault-degraded bundles digest the *degraded* content, so dataset
    faults change the key without any special-casing here.  Component
    digests are memoized on the dataset objects (see
    :func:`_memo_digest`), and the combined digest on the bundle, so
    repeat runs over the same study pay the content walk once.
    """
    cached = getattr(inputs, "_repro_inputs_digest", None)
    if cached is not None:
        return cached
    hasher = _Hasher()
    hasher.feed("scan", _scan_digest(inputs.scan))
    hasher.feed(
        "pdns",
        _memo_digest(inputs.pdns, lambda: value_digest(_pdns_rows(inputs.pdns))),
    )
    hasher.feed(
        "ct",
        _memo_digest(
            inputs.crtsh,
            lambda: value_digest(inputs.crtsh.fingerprint_payload()),
        ),
    )
    hasher.feed(
        "as2org",
        _memo_digest(
            inputs.as2org,
            lambda: value_digest(
                [
                    {"asn": asn, "org": org, "name": inputs.as2org.org_name(org)}
                    for asn, org in inputs.as2org.items()
                ]
            ),
        ),
    )
    hasher.feed(
        "periods",
        [
            {"index": p.index, "start": p.start.isoformat(), "end": p.end.isoformat()}
            for p in inputs.periods
        ],
    )
    hasher.feed(
        "routing",
        None
        if inputs.routing is None
        else _memo_digest(
            inputs.routing, lambda: value_digest(list(inputs.routing.prefixes()))
        ),
    )
    hasher.feed(
        "geo",
        None
        if inputs.geo is None
        else _memo_digest(inputs.geo, lambda: value_digest(inputs.geo.items())),
    )
    digest = hasher.hexdigest()
    try:
        # The bundle is a frozen dataclass; memoizing via its __dict__
        # does not affect field equality or downstream pickling.
        object.__setattr__(inputs, "_repro_inputs_digest", digest)
    except AttributeError:  # slots-only bundle: recompute every call
        pass
    return digest


#: Spec fields that only perturb the *scheduler* — crash/slowdown
#: injection and the retry policy.  Kernels are pure per-item maps and
#: retried chunks recompute identical results, so these knobs can never
#: change a stage's products; stripping them from the plan digest lets a
#: crash-interrupted run's clean re-run land on the same stage
#: fingerprints and resume from its completed shards (and lets a
#: worker-fault sweep share its data-identical cache entries).
_WORKER_FIELDS = frozenset(
    {"worker_crash", "worker_slow", "worker_slow_ms", "max_retries", "backoff_ms"}
)

#: Spec fields that actually degrade the evidence a stage consumes.
_DATA_FIELDS = (
    "drop_weeks",
    "drop_ports",
    "pdns_blackouts",
    "ct_delay_days",
    "routing_stale",
)


def plan_digest(plan: FaultPlan) -> str:
    """Digest of a fault plan's *data* identity.

    Worker-scheduler knobs are normalized away (see ``_WORKER_FIELDS``),
    and the seed only participates while some data channel is active —
    a seed that can only ever pick crash victims picks nothing that
    reaches a product.
    """
    payload = plan.fingerprint_payload()
    spec = {
        name: value
        for name, value in payload["spec"].items()
        if name not in _WORKER_FIELDS
    }
    data_active = any(spec[name] for name in _DATA_FIELDS)
    return value_digest(
        {"seed": payload["seed"] if data_active else 0, "spec": spec}
    )


def config_digest(config: Any) -> str:
    """Digest of the pipeline configuration (nested dataclass knobs)."""
    return value_digest(config)


@dataclass(frozen=True, slots=True)
class RunKey:
    """The per-run key material every stage fingerprint derives from.

    ``config_fields`` holds one ``(field, digest)`` pair per top-level
    configuration field, so a stage fingerprint can fold in only the
    fields that stage (and its upstream chain) actually reads — a sweep
    over inspection thresholds then still hits the deployment-map
    entries.  A non-dataclass config digests as the single anonymous
    field ``""``.
    """

    inputs: str
    faults: str
    config_fields: tuple[tuple[str, str], ...]


def derive_run_key(inputs: PipelineInputs, plan: FaultPlan, config: Any) -> RunKey:
    """Fingerprint one run's key material (the cache-probe hot path)."""
    if is_dataclass(config) and not isinstance(config, type):
        config_fields = tuple(
            (f.name, value_digest(getattr(config, f.name)))
            for f in fields(config)
        )
    else:
        config_fields = (("", value_digest(config)),)
    return RunKey(
        inputs=inputs_digest(inputs),
        faults=plan_digest(plan),
        config_fields=config_fields,
    )


def _config_material(
    run_key: RunKey, deps: Sequence[str] | None
) -> list[list[str]]:
    """The ``[field, digest]`` pairs one chain entry folds in.

    ``deps = None`` is the conservative default: the whole config.  A
    named dependency that is not a config field is a declaration bug and
    raises instead of silently under-keying.
    """
    if deps is None:
        return [[field, digest] for field, digest in run_key.config_fields]
    known = dict(run_key.config_fields)
    missing = [name for name in deps if name not in known]
    if missing:
        raise ValueError(
            f"unknown config dependencies {missing!r} "
            f"(config fields: {sorted(known)})"
        )
    return [[name, known[name]] for name in sorted(deps)]


def stage_fingerprint(
    run_key: RunKey,
    chain: Sequence[tuple[str, int, Sequence[str] | None]],
) -> str:
    """The cache address of one stage's result.

    ``chain`` is the ``(name, cache_version, config_deps)`` of every
    stage up to and including the one being keyed: a stage's output
    depends on the whole prefix of the stage list that produced its
    inputs, so editing (or version-bumping) any earlier stage — or
    changing a config field any stage in the prefix reads — re-keys
    everything downstream.
    """
    payload = {
        "salt": CACHE_SALT,
        "inputs": run_key.inputs,
        "faults": run_key.faults,
        "stages": [
            [name, version, _config_material(run_key, deps)]
            for name, version, deps in chain
        ],
    }
    return hashlib.blake2b(
        canonical_json(payload).encode("utf-8"), digest_size=_FINGERPRINT_BYTES
    ).hexdigest()
