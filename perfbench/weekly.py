"""Weekly splitter for the ``weekly_epochs`` workload, and its self-test.

The paper study is cut at its 13th-last scan date.  What was known by
then becomes the base bundle; each of the last 12 weekly scans, with
the pDNS observations and CT entries that arrived since the scan
before it, becomes one ``repro-delta/1`` epoch.  The last epoch also
carries whatever arrived after the final scan, so base + 12 deltas is
the whole study again.

pDNS evidence is aggregated as ``(first, last, count)`` per
``(rrname, rtype, rdata)``.  A record is split as ``count - 1``
observations on its first day and one on its last, so a record that
spans the cut shows up in the base as ``(first, first, count - 1)`` and
is completed by the epoch that holds its last day.

Rebuilding a window's datasets goes through the same private hooks the
epoch engine's merge uses (``PassiveDNSDatabase._insert_row`` and the
crt.sh service's publication settings): the program has no public
constructor for an aggregated pDNS row or a copied CT service.

Every ``weekly_epochs`` set-up runs :func:`self_test` on its split, and
its problems make the run's result incorrect.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace
from pathlib import Path

from repro.core.pipeline import PipelineInputs
from repro.ct.crtsh import CrtShService
from repro.ct.log import CTLog
from repro.epochs import EpochDelta, read_delta, write_delta
from repro.pdns.database import PassiveDNSDatabase
from repro.scan.dataset import ScanDataset
from repro.scan.table import ScanTable

WEEKS = 12


def scan_rows(table: ScanTable) -> list[tuple]:
    """Every row as an ``append_row`` argument tuple, in table order."""
    return [
        (
            table.date_ord[r],
            table.ips[table.ip_id[r]],
            table.asns[table.asn_id[r]],
            table.certs[table.cert_id[r]],
            table.countries[table.country_id[r]],
            table.port_sets[table.ports_id[r]],
            table.name_sets[table.names_id[r]],
            table.base_sets[table.bases_id[r]],
            table.trusted(r),
            table.sensitive(r),
        )
        for r in range(len(table))
    ]


def pdns_aggregates(pdns: PassiveDNSDatabase) -> dict[tuple, tuple]:
    return {
        (r.rrname, r.rtype, r.rdata): (r.first_seen, r.last_seen, r.count)
        for r in pdns.all_records()
    }


class WeeklySplit:
    """One study cut into a base window and ``weeks`` epoch windows.

    Window 0 is everything up to the cut; window ``i`` holds what
    arrived after the cut's ``i - 1``-th successor scan date up to and
    including its ``i``-th.  Each piece of evidence is assigned to one
    window, and :meth:`inputs_through` rebuilds the study as it stood
    at the end of any window.
    """

    def __init__(self, study, weeks: int = WEEKS) -> None:
        self.study = study
        self.weeks = weeks
        self.inputs = PipelineInputs.from_study(study)
        scan = self.inputs.scan
        self.calendar = scan.scan_dates
        if len(self.calendar) <= weeks:
            raise ValueError(f"a {len(self.calendar)}-date calendar has no {weeks} weeks to split")
        self.cuts = self.calendar[-(weeks + 1):]
        self.rows = scan_rows(scan.table)
        cut_ordinals = [d.toordinal() for d in self.cuts]
        self.row_windows = [
            min(bisect_left(cut_ordinals, row[0]), weeks) for row in self.rows
        ]
        # (key, day, multiplicity) per pDNS observation group.
        self.observations = []
        for key, (first, last, count) in pdns_aggregates(self.inputs.pdns).items():
            if count > 1:
                self.observations.append((key, first, count - 1))
                self.observations.append((key, last, 1))
            else:
                self.observations.append((key, first, 1))
        self.ct = [(e.certificate, e.timestamp) for e in study.ct_log.entries()]

    def window(self, day) -> int:
        return min(bisect_left(self.cuts, day), self.weeks)

    def inputs_through(self, last_window: int) -> PipelineInputs:
        """The study as it stood once ``last_window`` had arrived."""
        builder = ScanTable.build()
        for row, window in zip(self.rows, self.row_windows):
            if window <= last_window:
                builder.append_row(*row)
        scan = self.inputs.scan
        dataset = ScanDataset.from_table(
            builder.finish(),
            tuple(d for d in self.calendar if self.window(d) <= last_window),
            known_missing_dates=frozenset(
                d for d in scan.known_missing_dates if self.window(d) <= last_window
            ),
        )
        aggregates: dict[tuple, list] = {}
        for key, day, count in self.observations:
            if self.window(day) > last_window:
                continue
            row = aggregates.get(key)
            if row is None:
                aggregates[key] = [day, day, count]
            else:
                row[0] = min(row[0], day)
                row[1] = max(row[1], day)
                row[2] += count
        pdns = PassiveDNSDatabase()
        for key, (first, last, count) in aggregates.items():
            pdns._insert_row(key, first, last, count)
        log = CTLog(self.study.ct_log.name)
        for cert, day in self.ct:
            if self.window(day) <= last_window:
                log.submit(cert, day)
        crtsh = self.study.crtsh
        service = CrtShService(
            [log],
            self.study.revocations,
            asof=crtsh._asof,
            publication_delay_days=crtsh._publication_delay.days,
            publication_horizon=crtsh._publication_horizon,
        )
        return replace(self.inputs, scan=dataset, pdns=pdns, crtsh=service)

    def delta(self, window: int) -> EpochDelta:
        """Window ``window``'s arrivals as epoch ``window``."""
        observations = []
        for (rrname, rtype, rdata), day, count in self.observations:
            if self.window(day) == window:
                observations.extend([(rrname, rtype, rdata, day)] * count)
        return EpochDelta(
            epoch=window,
            label=f"week-{window}-{self.cuts[window].isoformat()}",
            scan_rows=tuple(
                row for row, w in zip(self.rows, self.row_windows) if w == window
            ),
            scan_dates=tuple(d for d in self.calendar if self.window(d) == window),
            known_missing=tuple(
                sorted(
                    d for d in self.inputs.scan.known_missing_dates
                    if self.window(d) == window
                )
            ),
            pdns_observations=tuple(observations),
            ct_entries=tuple((c, d) for c, d in self.ct if self.window(d) == window),
        )

    def deltas(self) -> list[EpochDelta]:
        return [self.delta(w) for w in range(1, self.weeks + 1)]


def self_test(split: WeeklySplit, base: PipelineInputs, deltas: list[EpochDelta],
              workdir: Path) -> list[str]:
    """Problems found reassembling the study from ``base`` + ``deltas``
    and round-tripping each delta through its file; empty when sound."""
    problems: list[str] = []
    original = split.inputs

    rows = scan_rows(base.scan.table)
    for delta in deltas:
        rows.extend(delta.scan_rows)
    if len(rows) != len(split.rows):
        problems.append(f"scan rows: {len(rows)} reassembled, {len(split.rows)} in the study")
    elif rows != split.rows:
        problems.append("scan rows: reassembled rows differ from the study's")

    calendar = sorted(set(base.scan.scan_dates).union(*(d.scan_dates for d in deltas)))
    if tuple(calendar) != tuple(original.scan.scan_dates):
        problems.append("calendar: reassembled scan dates differ")
    missing = set(base.scan.known_missing_dates).union(*(d.known_missing for d in deltas))
    if missing != set(original.scan.known_missing_dates):
        problems.append("known-missing dates differ")

    pdns = PassiveDNSDatabase()
    for key, (first, last, count) in pdns_aggregates(base.pdns).items():
        pdns._insert_row(key, first, last, count)
    for delta in deltas:
        for observation in delta.pdns_observations:
            pdns.add_observation(*observation)
    if pdns_aggregates(pdns) != pdns_aggregates(original.pdns):
        problems.append("pDNS aggregates (first, last, count) differ")

    ct = [
        (e.certificate.fingerprint, e.timestamp)
        for log in base.crtsh._logs for e in log.entries()
    ]
    for delta in deltas:
        ct.extend((c.fingerprint, d) for c, d in delta.ct_entries)
    # Logs order entries by submission, not timestamp, and every epoch
    # lands in a log of its own: compare the entries, not their order.
    if sorted(ct) != sorted((c.fingerprint, d) for c, d in split.ct):
        problems.append("CT entries differ")

    for delta in deltas:
        path = write_delta(delta, workdir / f"selftest-{delta.epoch:02d}.delta")
        if read_delta(path).digest() != delta.digest():
            problems.append(f"epoch {delta.epoch}: digest changed through write_delta/read_delta")
        path.unlink()
    return problems

