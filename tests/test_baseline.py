"""Tests for the ML-classifier baseline (features, logistic regression,
end-to-end training on a study)."""

import numpy as np
import pytest

from repro.baseline.features import FEATURE_NAMES, domain_features
from repro.baseline.logreg import LogisticRegression
from repro.baseline.model import train_baseline
from repro.detect.arena import score_sets


class TestLogisticRegression:
    def test_learns_separable_data(self):
        rng = np.random.default_rng(0)
        n = 400
        x = rng.normal(size=(n, 3))
        labels = (x[:, 0] + 2 * x[:, 1] > 0).astype(int)
        model = LogisticRegression(iterations=3000)
        model.fit(x, labels)
        accuracy = (model.predict(x) == labels).mean()
        assert accuracy > 0.95

    def test_class_weighting_handles_imbalance(self):
        rng = np.random.default_rng(1)
        negatives = rng.normal(loc=0.0, size=(500, 2))
        positives = rng.normal(loc=2.5, size=(10, 2))
        x = np.vstack([negatives, positives])
        labels = np.array([0] * 500 + [1] * 10)
        model = LogisticRegression(iterations=3000)
        model.fit(x, labels)
        recall = model.predict(positives).mean()
        assert recall >= 0.8

    def test_constant_feature_does_not_crash(self):
        x = np.column_stack([np.ones(50), np.arange(50)])
        labels = (np.arange(50) > 25).astype(int)
        LogisticRegression(iterations=500).fit(x, labels)

    def test_validates_inputs(self):
        model = LogisticRegression()
        with pytest.raises(ValueError):
            model.fit(np.zeros((5, 2)), np.array([0, 1, 2, 0, 1]))
        with pytest.raises(ValueError):
            model.fit(np.zeros(5), np.zeros(5))
        with pytest.raises(RuntimeError):
            model.predict_proba(np.zeros((1, 2)))

    def test_probabilities_bounded(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(100, 2)) * 100
        labels = (x[:, 0] > 0).astype(int)
        model = LogisticRegression().fit(x, labels)
        probabilities = model.predict_proba(x)
        assert np.all((probabilities >= 0) & (probabilities <= 1))


class TestFeatures:
    def test_feature_vector_shape(self, small_study):
        period = small_study.periods[1]
        features = domain_features(
            "example-ministry.gr", small_study.scan, small_study.pdns, period
        )
        assert len(features) == len(FEATURE_NAMES)
        assert all(isinstance(v, float) for v in features)

    def test_attack_period_features_differ_from_benign(self, small_study):
        period = small_study.periods[1]  # the hijack period (Aug 2018)
        victim = domain_features(
            "example-ministry.gr", small_study.scan, small_study.pdns, period
        )
        by_name = dict(zip(FEATURE_NAMES, victim))
        assert by_name["n_deployments"] >= 2
        assert by_name["n_countries"] >= 2
        assert by_name["has_sensitive_san"] == 1.0

    def test_unknown_domain_features_are_zeroish(self, small_study):
        period = small_study.periods[0]
        features = domain_features(
            "never-seen.example", small_study.scan, small_study.pdns, period
        )
        assert dict(zip(FEATURE_NAMES, features))["n_deployments"] == 0.0


class TestTrainedBaseline:
    def test_baseline_flags_the_victim(self, small_study):
        classifier = train_baseline(
            small_study.scan, small_study.pdns, small_study.periods,
            small_study.ground_truth,
        )
        flagged = classifier.flagged_domains()
        assert "example-ministry.gr" in flagged

    def test_comparison_rows(self, small_study):
        truth = small_study.ground_truth.domains()
        baseline_row = score_sets(
            "ml-baseline", {"example-ministry.gr", "bg000001.com"}, truth
        )
        pipeline_row = score_sets("pipeline", {"example-ministry.gr"}, truth)
        assert baseline_row.recall == 1.0
        assert baseline_row.precision == 0.5
        assert pipeline_row.precision == 1.0
        assert pipeline_row.f1 == 1.0
