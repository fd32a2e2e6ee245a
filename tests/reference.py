"""Row-at-a-time reference implementations, the differential oracles.

Production code answers every query through one columnar kernel.  The
original row-at-a-time algorithms live here, written down once, so the
differential suites can require each kernel to match them:

* :class:`LinearPdns` — passive DNS as linear scans over
  ``PassiveDNSDatabase.all_records()``;
* :class:`BaseIndexCrtSh` — crt.sh as a per-registered-domain list
  index over the CT logs, behind the same publication delay and
  horizon filter;
* :func:`victim_infra` — one domain's stable victim infrastructure,
  walked out of the whole classification table;
* :func:`jsonable` + ``canonical_json`` — the two-pass canonical form
  that :func:`repro.cache.fingerprint.canonical_encode` writes in one
  pass (:func:`value_digest` digests it);
* :func:`scan_row_dicts` + :func:`block_digests` — the scan content
  digest as one ``json.dumps`` per row dict, which
  :func:`repro.cache.fingerprint.walk_block_digests` assembles from
  pre-encoded pool entries.

The two stores expose the query surface :class:`repro.core.inspection.
Inspector` uses, so an Inspector can run over them unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from datetime import date, datetime, timedelta
from enum import Enum
from typing import Any, Iterable, Iterator

from repro.core.patterns import Classification
from repro.ct.crtsh import CrtShEntry, CrtShService
from repro.ct.log import CTLog
from repro.dns.records import RRType
from repro.io.golden import canonical_json
from repro.net.names import registered_domain
from repro.net.timeline import DateInterval
from repro.pdns.database import PassiveDNSDatabase, PdnsRecord
from repro.scan.table import ScanTable
from repro.tls.certificate import Certificate
from repro.tls.matching import san_matches
from repro.tls.revocation import RevocationRegistry, RevocationStatus


class LinearPdns:
    """The pDNS forward queries as scans over every aggregated row."""

    def __init__(self, database: PassiveDNSDatabase) -> None:
        self._records = database.all_records()

    @staticmethod
    def _in_window(
        records: list[PdnsRecord], window: DateInterval | None
    ) -> list[PdnsRecord]:
        if window is None:
            return records
        return [r for r in records if r.overlaps(window)]

    def query_name(
        self,
        rrname: str,
        rtype: RRType | None = None,
        window: DateInterval | None = None,
    ) -> list[PdnsRecord]:
        rrname = rrname.lower().rstrip(".")
        records = [
            r
            for r in self._records
            if r.rrname == rrname and (rtype is None or r.rtype is rtype)
        ]
        records = self._in_window(records, window)
        records.sort(key=lambda r: (r.first_seen, r.rdata))
        return records

    def query_domain(
        self, domain: str, window: DateInterval | None = None
    ) -> list[PdnsRecord]:
        base = registered_domain(domain)
        suffix = "." + base
        records = [
            r for r in self._records if r.rrname == base or r.rrname.endswith(suffix)
        ]
        records = self._in_window(records, window)
        records.sort(key=lambda r: (r.rrname, r.first_seen, r.rdata))
        return records

    def a_history(
        self, fqdn: str, window: DateInterval | None = None
    ) -> list[PdnsRecord]:
        return self.query_name(fqdn, RRType.A, window)

    def ns_history(
        self, domain: str, window: DateInterval | None = None
    ) -> list[PdnsRecord]:
        return self.query_name(registered_domain(domain), RRType.NS, window)


class BaseIndexCrtSh:
    """crt.sh search over a ``registered domain -> [(cert, published)]``
    index, one bucket entry per SAN (a certificate with two names under
    one base sits in that base's bucket twice)."""

    def __init__(
        self,
        logs: list[CTLog],
        revocations: RevocationRegistry,
        asof: date | None = None,
        publication_delay_days: int = 0,
        publication_horizon: date | None = None,
    ) -> None:
        self._revocations = revocations
        self._asof = asof
        self.hidden_entries = 0
        self._index: dict[str, list[tuple[Certificate, date]]] = {}
        delay = timedelta(days=publication_delay_days)
        for log in logs:
            for entry in log.entries():
                published = entry.timestamp + delay
                if publication_horizon is not None and published > publication_horizon:
                    self.hidden_entries += 1
                    continue
                for san in entry.certificate.sans:
                    name = san[2:] if san.startswith("*.") else san
                    try:
                        base = registered_domain(name)
                    except ValueError:
                        continue
                    self._index.setdefault(base, []).append(
                        (entry.certificate, published)
                    )

    @classmethod
    def of(cls, service: CrtShService) -> BaseIndexCrtSh:
        """The reference over the same logs and filters as ``service``."""
        return cls(
            service._logs,
            service._revocations,
            service._asof,
            publication_delay_days=service._publication_delay.days,
            publication_horizon=service._publication_horizon,
        )

    def _status(self, cert: Certificate) -> RevocationStatus:
        asof = self._asof or (cert.not_after + timedelta(days=365))
        return self._revocations.retroactive_status(cert, asof)

    def search(
        self,
        domain: str,
        issued_after: date | None = None,
        issued_before: date | None = None,
    ) -> list[CrtShEntry]:
        results = [
            CrtShEntry(cert.crtsh_id, cert, logged_at, self._status(cert))
            for cert, logged_at in self._index.get(registered_domain(domain), [])
            if (issued_after is None or cert.not_before >= issued_after)
            and (issued_before is None or cert.not_before <= issued_before)
        ]
        results.sort(key=lambda e: (e.issued_on, e.crtsh_id))
        return results

    def search_exact(
        self,
        fqdn: str,
        issued_after: date | None = None,
        issued_before: date | None = None,
    ) -> list[CrtShEntry]:
        return [
            entry
            for entry in self.search(fqdn, issued_after, issued_before)
            if any(san_matches(san, fqdn) for san in entry.certificate.sans)
        ]

    def lookup_id(self, crtsh_id: int) -> CrtShEntry | None:
        for certs in self._index.values():
            for cert, logged_at in certs:
                if cert.crtsh_id == crtsh_id:
                    return CrtShEntry(crtsh_id, cert, logged_at, self._status(cert))
        return None


def victim_infra(
    classifications: dict[tuple[str, int], Classification], domain: str
) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """The domain's stable ASNs and countries, in first-seen order over
    the sorted classification table."""
    asns: list[int] = []
    ccs: list[str] = []
    for (d, _), classification in sorted(classifications.items()):
        if d != domain:
            continue
        for deployment in classification.stable:
            if deployment.asn not in asns:
                asns.append(deployment.asn)
            for cc in sorted(deployment.countries):
                if cc not in ccs:
                    ccs.append(cc)
    return tuple(asns), tuple(ccs)


def jsonable(value: Any) -> Any:
    """Recursively convert a value into a canonical JSON-safe form.

    Dataclasses become field dicts, enums their names, dates ISO
    strings; sets and frozensets become sorted lists; dicts become
    sorted ``[key, value]`` pair lists (keys converted too).
    """
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, datetime):
        return value.isoformat()
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, (set, frozenset)):
        converted = [jsonable(v) for v in value]
        return sorted(converted, key=canonical_json)
    if isinstance(value, dict):
        pairs = [[jsonable(k), jsonable(v)] for k, v in value.items()]
        return {"__pairs__": sorted(pairs, key=canonical_json)}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot fingerprint value of type {type(value).__name__}")


def value_digest(value: Any) -> str:
    """``repro.cache.fingerprint.value_digest`` as convert-then-encode."""
    return hashlib.blake2b(
        canonical_json(jsonable(value)).encode("utf-8"), digest_size=16
    ).hexdigest()


def scan_row_dicts(table: ScanTable, start: int = 0) -> Iterator[dict[str, Any]]:
    """The table's canonical per-row dicts in dataset order, from ``start``."""
    for row in range(start, len(table)):
        yield {
            "d": date.fromordinal(table.date_ord[row]).isoformat(),
            "ip": table.ips[table.ip_id[row]],
            "ports": list(table.port_sets[table.ports_id[row]]),
            "asn": table.asns[table.asn_id[row]],
            "cc": table.countries[table.country_id[row]],
            "trusted": table.trusted(row),
            "sensitive": table.sensitive(row),
            "names": list(table.name_sets[table.names_id[row]]),
            "base": list(table.base_sets[table.bases_id[row]]),
            "cert": table.cert_fps[table.cert_id[row]],
        }


def block_digests(rows: Iterable[dict[str, Any]], block_rows: int) -> list[str]:
    """Digest of each ``block_rows``-row block, one ``json.dumps`` per row."""
    digests = []
    hasher = None
    count = 0
    for row in rows:
        if hasher is None:
            hasher = hashlib.blake2b(digest_size=16)
        hasher.update(canonical_json(row).encode("utf-8"))
        hasher.update(b"\n")
        count += 1
        if count == block_rows:
            digests.append(hasher.hexdigest())
            hasher = None
            count = 0
    if hasher is not None:
        digests.append(hasher.hexdigest())
    return digests
