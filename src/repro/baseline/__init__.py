"""ML-classifier baseline (the Houser et al. approach, Section 2.1).

The paper contrasts its constructive, attack-requirement-driven
methodology with prior work that trains a classifier over passive-DNS
features.  This package implements that style of baseline from scratch:
per-domain features extracted from the scan + pDNS view, a logistic
regression trained by gradient descent (numpy only).  Its flagged set is
scored against the ledger like every other detector's, by
:func:`repro.detect.arena.score_sets`.
"""

from repro.baseline.features import FEATURE_NAMES, domain_features
from repro.baseline.logreg import LogisticRegression
from repro.baseline.model import BaselineClassifier, train_baseline
from repro.baseline.naive import flag_all_transients, flag_shortlisted

__all__ = [
    "FEATURE_NAMES",
    "domain_features",
    "LogisticRegression",
    "BaselineClassifier",
    "train_baseline",
    "flag_all_transients",
    "flag_shortlisted",
]
