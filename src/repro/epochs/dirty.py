"""The dirty-set scheduler: which domains can an epoch's delta affect?

The epoch engine re-runs the deployment kernel only over domains whose
*own* scan rows changed (a per-domain encoding is a pure function of
that domain's rows, the scan calendar, and the periods).  But a report
can change further out: inspection reads pDNS and CT, and the pivot can
attach a finding to a domain that shares attacker infrastructure with a
directly-touched one.  The dirty set therefore layers four widening
rings, each computed exactly from the delta and the base evidence:

* ``scan_direct`` — registered domains of appended scan rows (including
  brand-new domains).  This ring alone gates deployment-map reuse.
* ``pdns_touched`` / ``ct_touched`` — registered domains of appended
  pDNS observations and CT entries (the channels inspection reads).
* ``transitive`` — one hop over shared evidence: domains whose base
  scan rows share an IP, ASN, or certificate with the delta's rows (or
  with a directly-touched domain's rows), plus domains co-resolving to
  an rdata the delta's pDNS observations mention.  This bounds how far
  the pivot stage can carry a delta's influence in one run.

``calendar_changed`` flags in-period scan-calendar additions: encoded
deployment maps embed per-period scan *indices*, so a calendar change
inside any study period invalidates every clean domain's encoding at
once and the engine falls back to a full deployment sweep.

The property suite's soundness oracle (every domain whose report
changes between the base run and the merged run is in ``all_dirty``)
is what keeps this set honest — the engine may over-approximate, never
under-approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.net.names import registered_domain

if TYPE_CHECKING:
    from repro.core.pipeline import PipelineInputs
    from repro.epochs.delta import EpochDelta


def _registered(name: str) -> str | None:
    try:
        return registered_domain(name[2:] if name.startswith("*.") else name)
    except ValueError:
        return None


@dataclass(frozen=True)
class DirtySet:
    """The domains one epoch's delta can affect, by widening ring."""

    scan_direct: frozenset[str]
    pdns_touched: frozenset[str]
    ct_touched: frozenset[str]
    transitive: frozenset[str]
    calendar_changed: bool

    @property
    def all_dirty(self) -> frozenset[str]:
        return (
            self.scan_direct
            | self.pdns_touched
            | self.ct_touched
            | self.transitive
        )

    def counts(self) -> dict[str, int]:
        return {
            "scan_direct": len(self.scan_direct),
            "pdns_touched": len(self.pdns_touched),
            "ct_touched": len(self.ct_touched),
            "transitive": len(self.transitive),
            "total": len(self.all_dirty),
        }


def compute_dirty_set(inputs: PipelineInputs, delta: EpochDelta) -> DirtySet:
    """The exact dirty set of ``delta`` over the base ``inputs``."""
    table = inputs.scan.table

    # -- ring 1: domains with appended scan rows ------------------------------
    scan_direct: set[str] = set()
    for row in delta.scan_rows:
        scan_direct.update(row[7])

    # -- calendar: any new scan date inside a study period? -------------------
    existing = set(inputs.scan.scan_dates)
    calendar_changed = any(
        day not in existing
        and any(p.contains(day) for p in inputs.periods)
        for day in delta.scan_dates
    )

    # -- ring 2: channels inspection reads ------------------------------------
    pdns_touched: set[str] = set()
    for rrname, _rtype, _rdata, _day in delta.pdns_observations:
        base = _registered(rrname.lower())
        if base is not None:
            pdns_touched.add(base)
    ct_touched: set[str] = set()
    for cert, _day in delta.ct_entries:
        for san in cert.sans:
            base = _registered(san)
            if base is not None:
                ct_touched.add(base)
    for fingerprint, _on, _reason in delta.revocations:
        ct_touched.update(_cert_domains(inputs, delta, fingerprint))

    # -- ring 3: one hop over shared scan evidence ----------------------------
    hot_ips: set[str] = set()
    hot_asns: set[int] = set()
    hot_certs: set[str] = set()
    for row in delta.scan_rows:
        hot_ips.add(row[1])
        hot_asns.add(row[2])
        hot_certs.add(row[3].fingerprint)
    # A directly-touched domain's *existing* evidence is hot too: the
    # pivot can link through infrastructure the domain already had.
    for name in scan_direct:
        lo, hi = table.domain_slice(name)
        for i in range(lo, hi):
            row = table.csr_rows[i]
            hot_ips.add(table.ips[table.ip_id[row]])
            hot_asns.add(table.asns[table.asn_id[row]])
            hot_certs.add(table.cert_fps[table.cert_id[row]])

    hot_ip_ids = {i for i, ip in enumerate(table.ips) if ip in hot_ips}
    hot_asn_ids = {i for i, asn in enumerate(table.asns) if asn in hot_asns}
    hot_cert_ids = {
        i for i, fp in enumerate(table.cert_fps) if fp in hot_certs
    }
    transitive: set[str] = set()
    if hot_ip_ids or hot_asn_ids or hot_cert_ids:
        touched_bases = {
            bases
            for ip, asn, cert, bases in zip(
                table.ip_id, table.asn_id, table.cert_id, table.bases_id
            )
            if ip in hot_ip_ids or asn in hot_asn_ids or cert in hot_cert_ids
        }
        for ident in touched_bases:
            transitive.update(table.base_sets[ident])

    # -- ring 3b: pDNS rdata overlap ------------------------------------------
    delta_rdatas = {rdata for _n, _t, rdata, _d in delta.pdns_observations}
    if delta_rdatas:
        for record in inputs.pdns.all_records():
            if record.rdata in delta_rdatas:
                base = _registered(record.rrname.lower())
                if base is not None:
                    transitive.add(base)

    return DirtySet(
        scan_direct=frozenset(scan_direct),
        pdns_touched=frozenset(pdns_touched),
        ct_touched=frozenset(ct_touched),
        transitive=frozenset(transitive),
        calendar_changed=calendar_changed,
    )


def _cert_domains(
    inputs: PipelineInputs, delta: EpochDelta, fingerprint: str
) -> set[str]:
    """Registered domains named by one revoked certificate.

    The certificate may live in the base CT logs or arrive in this very
    delta (revoked-on-arrival), so both views are searched.
    """
    domains: set[str] = set()

    def fold(cert) -> None:
        for san in cert.sans:
            base = _registered(san)
            if base is not None:
                domains.add(base)

    for log in inputs.crtsh._logs:
        for entry in log.entries():
            if entry.certificate.fingerprint == fingerprint:
                fold(entry.certificate)
    for cert, _day in delta.ct_entries:
        if cert.fingerprint == fingerprint:
            fold(cert)
    return domains


__all__ = ["DirtySet", "compute_dirty_set"]
