"""The classifier baseline end to end: train, predict, compare.

Trains on labeled (domain, period) pairs — positives are ground-truth
attack periods, negatives a sample of benign maps — and evaluates
against the constructive pipeline on held-out data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.baseline.features import domain_features
from repro.baseline.logreg import LogisticRegression
from repro.net.timeline import Period, period_of
from repro.pdns.database import PassiveDNSDatabase
from repro.scan.dataset import ScanDataset
from repro.world.groundtruth import GroundTruthLedger


@dataclass
class BaselineClassifier:
    """A trained baseline with its feature extraction context."""

    model: LogisticRegression
    scan: ScanDataset
    pdns: PassiveDNSDatabase
    periods: tuple[Period, ...]
    threshold: float = 0.5

    def score(self, domain: str, period: Period) -> float:
        features = np.array([domain_features(domain, self.scan, self.pdns, period)])
        return float(self.model.predict_proba(features)[0])

    def predict(self, domain: str, period: Period) -> bool:
        return self.score(domain, period) >= self.threshold

    def flagged_domains(self, domains: list[str] | None = None) -> set[str]:
        """Domains flagged in any period (the classifier's 'hijacked' set)."""
        flagged: set[str] = set()
        for domain in domains or self.scan.domains():
            for period in self.periods:
                if not self.scan.scan_dates_in(period):
                    continue
                if self.predict(domain, period):
                    flagged.add(domain)
                    break
        return flagged


def _attack_period(ledger: GroundTruthLedger, domain: str, periods: tuple[Period, ...]) -> Period | None:
    record = ledger.record_for(domain)
    if record is None:
        return None
    try:
        return period_of(record.hijack_date, periods)
    except ValueError:
        return None


def train_baseline(
    scan: ScanDataset,
    pdns: PassiveDNSDatabase,
    periods: tuple[Period, ...],
    ledger: GroundTruthLedger,
    negatives_per_positive: int = 10,
    seed: int = 11,
) -> BaselineClassifier:
    """Train the baseline on this study's ground truth."""
    rng = random.Random(seed)
    attack_domains = ledger.domains()

    rows: list[list[float]] = []
    labels: list[int] = []
    for domain in sorted(attack_domains):
        period = _attack_period(ledger, domain, periods)
        if period is None:
            continue
        rows.append(domain_features(domain, scan, pdns, period))
        labels.append(1)

    benign = [d for d in scan.domains() if d not in attack_domains]
    rng.shuffle(benign)
    n_negatives = min(len(benign), max(1, len(rows)) * negatives_per_positive)
    for domain in benign[:n_negatives]:
        candidate_periods = [p for p in periods if scan.scan_dates_in(p)]
        if not candidate_periods:
            continue
        period = rng.choice(candidate_periods)
        rows.append(domain_features(domain, scan, pdns, period))
        labels.append(0)

    model = LogisticRegression()
    model.fit(np.array(rows), np.array(labels))
    return BaselineClassifier(model=model, scan=scan, pdns=pdns, periods=periods)
