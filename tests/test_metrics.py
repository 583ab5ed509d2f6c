"""Evaluation metrics against brute-force oracles, report round-trips."""

import numpy as np
import pytest

from noisylab import metrics, net
from noisylab.contrastive import pair_match_counts_fast
from noisylab.oracles import pairwise_auroc, sweep_fpr_at_tpr


class TestAccuracy:
    def test_all_correct(self):
        assert metrics.accuracy(np.array([1, 2, 3]), np.array([1, 2, 3])) == 1.0

    def test_all_wrong(self):
        assert metrics.accuracy(np.array([0, 0]), np.array([1, 2])) == 0.0

    def test_three_of_four(self):
        assert metrics.accuracy(np.array([1, 2, 3, 0]), np.array([1, 2, 3, 3])) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.accuracy(np.array([]), np.array([]))


class TestPairPurity:
    """Positive-pair purity from the matrix-form counters: rows sharing a
    pseudo-label are positives, each gated by the product of normalized
    reliabilities; raw = matches / pairs, gated = gated matches / gate mass."""

    def test_all_matching(self):
        matches, pairs, wmatch, wsum = pair_match_counts_fast(
            np.array([0, 0]), np.array([2.0, 2.0]), np.array([5, 5]))
        assert matches / pairs == 1.0 and wmatch / wsum == 1.0

    def test_constant_weights_equal_raw(self):
        rng = np.random.default_rng(0)
        pc = rng.integers(0, 2, 10)
        y = rng.integers(0, 2, 10)
        matches, pairs, wmatch, wsum = pair_match_counts_fast(pc, np.full(10, 0.7), y)
        assert wmatch / wsum == pytest.approx(matches / pairs)

    def test_hand_fixture(self):
        # positives (0,1), (1,0), (2,3), (3,2) have matches (1,1,0,0) and
        # weights (1,1,2,2): raw = 2/4, gated = (1+1)/(1+1+2+2) = 1/3
        pc = np.array([0, 0, 1, 1])
        bnorm = np.array([1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0)])
        y = np.array([0, 0, 1, 2])
        matches, pairs, wmatch, wsum = pair_match_counts_fast(pc, bnorm, y)
        assert matches / pairs == pytest.approx(0.5)
        assert wmatch / wsum == pytest.approx(1.0 / 3.0)

    def test_empty_weights_reported_absent(self):
        matches, pairs, wmatch, wsum = pair_match_counts_fast(
            np.array([0, 0]), np.array([0.0, 0.0]), np.array([1, 1]))
        assert matches / pairs == 1.0 and wsum == 0.0


class TestAuroc:
    def test_perfect_separation(self):
        s = metrics.OodScoreSet(np.array([0.9, 0.8]), np.array([0.1, 0.2]))
        assert metrics.auroc(s) == 1.0

    def test_identical_multisets_half(self):
        s = metrics.OodScoreSet(np.array([0.3, 0.7, 0.5]), np.array([0.5, 0.3, 0.7]))
        assert metrics.auroc(s) == pytest.approx(0.5)

    def test_hand_case_three_quarters(self):
        s = metrics.OodScoreSet(np.array([0.9, 0.8]), np.array([0.85, 0.1]))
        assert metrics.auroc(s) == pytest.approx(0.75)

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            id_s = np.round(rng.random(17), 1)
            ood_s = np.round(rng.random(13), 1)
            s = metrics.OodScoreSet(id_s, ood_s)
            assert metrics.auroc(s) == pytest.approx(pairwise_auroc(id_s, ood_s), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        id_s = rng.random(25)
        ood_s = rng.random(20) * 0.9
        base = metrics.auroc(metrics.OodScoreSet(id_s, ood_s))
        assert metrics.auroc(metrics.OodScoreSet(np.exp(id_s), np.exp(ood_s))) == pytest.approx(base, abs=1e-10)
        assert metrics.auroc(metrics.OodScoreSet(3 * id_s + 2, 3 * ood_s + 2)) == pytest.approx(base, abs=1e-10)

    def test_complement_identity_tie_free(self):
        rng = np.random.default_rng(3)
        id_s = rng.random(15)
        ood_s = rng.random(12) + 2.0  # disjoint ranges: tie-free
        a = metrics.auroc(metrics.OodScoreSet(id_s, ood_s))
        b = metrics.auroc(metrics.OodScoreSet(ood_s, id_s))
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            metrics.OodScoreSet(np.array([]), np.array([0.5]))


class TestFpr95:
    def test_perfect_separation_zero(self):
        s = metrics.OodScoreSet(np.linspace(0.8, 1.0, 40), np.linspace(0.0, 0.2, 40))
        assert metrics.fpr_at_95_tpr(s) == 0.0

    def test_identical_distributions_high(self):
        v = np.linspace(0.0, 1.0, 40)
        s = metrics.OodScoreSet(v, v.copy())
        assert metrics.fpr_at_95_tpr(s) >= 0.95

    def test_matches_exhaustive_sweep_hand_fixture(self):
        # 20 ID scores where 19/20 = 0.95 recall sets the threshold at 0.61,
        # leaving 2 of 10 OOD scores above it; frozen from the sweep oracle
        id_s = np.array([0.95, 0.9, 0.88, 0.86, 0.84, 0.82, 0.8, 0.78, 0.76,
                         0.74, 0.72, 0.71, 0.69, 0.68, 0.67, 0.66, 0.64, 0.62,
                         0.61, 0.2])
        ood_s = np.array([0.7, 0.65, 0.6, 0.55, 0.5, 0.45, 0.4, 0.35, 0.3, 0.25])
        s = metrics.OodScoreSet(id_s, ood_s)
        assert metrics.fpr_at_95_tpr(s) == pytest.approx(sweep_fpr_at_tpr(id_s, ood_s), abs=1e-12)
        assert metrics.fpr_at_95_tpr(s) == pytest.approx(0.2)

    def test_matches_exhaustive_sweep_randomized(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            id_s = rng.random(12)
            ood_s = rng.random(8) * 0.8
            s = metrics.OodScoreSet(id_s, ood_s)
            assert metrics.fpr_at_95_tpr(s) == pytest.approx(
                sweep_fpr_at_tpr(id_s, ood_s), abs=1e-12)


class TestMsp:
    def test_uniform_logits(self):
        arch = net.Architecture(3, 4, 4, 2)
        params = net.ModelParams(arch, np.zeros(arch.n_params))
        scores = metrics.msp_scores(params, np.random.default_rng(0).standard_normal((5, 3)))
        assert np.allclose(scores, 0.25)

    def test_dominant_logit_limit(self):
        assert net.softmax(np.array([50.0, 0.0, 0.0])).max() > 1 - 1e-12

    def test_matches_shared_softmax(self):
        arch = net.Architecture(3, 4, 4, 2)
        rng = np.random.default_rng(1)
        params = net.ModelParams(arch, 0.5 * rng.standard_normal(arch.n_params))
        x = rng.standard_normal((6, 3))
        scores = metrics.msp_scores(params, x)
        logits = net.forward_batch(params, x).logits
        assert np.allclose(scores, net.softmax(logits).max(axis=1), atol=1e-12)

    def test_scores_in_range(self):
        arch = net.Architecture(3, 4, 4, 2)
        rng = np.random.default_rng(2)
        params = net.ModelParams(arch, rng.standard_normal(arch.n_params))
        scores = metrics.msp_scores(params, rng.standard_normal((50, 3)))
        assert np.all(scores >= 0.25 - 1e-12) and np.all(scores <= 1.0)


class TestRunReport:
    def make_report(self):
        return metrics.RunReport(
            config={"trainer": {"epochs": 2}},
            seeds={"seed": 7},
            initial={"test_acc": {"net1": 0.25, "net2": 0.26, "ensemble": 0.27}},
            epochs=[
                {"epoch": 0, "lr": 0.05, "warmup_w": 0.0,
                 "losses": {"net1": {"ce_re": 1.0, "cr": None, "ram": None,
                                     "cdcl": None, "total": 1.0},
                            "net2": {"ce_re": 1.1, "cr": None, "ram": None,
                                     "cdcl": None, "total": 1.1}},
                 "test_acc": {"net1": 0.5, "net2": 0.5, "ensemble": 0.5},
                 "reliability_stats": {"alpha_clean_mean": 0.6, "alpha_clean_std": 0.1,
                                       "alpha_noisy_mean": 0.0, "alpha_noisy_std": 0.0,
                                       "beta_clean_mean": 0.5, "beta_clean_std": 0.2,
                                       "beta_noisy_mean": 0.1, "beta_noisy_std": 0.05},
                 "purity_raw": None, "purity_gated": None, "mean_wmix": None,
                 "lambda_stats": None, "mass_gap_max": 1e-16},
            ],
            summary={"last_acc": {"net1": 0.5, "net2": 0.5, "ensemble": 0.5},
                     "best_acc_ensemble": 0.5, "best_epoch": 0,
                     "mass_gap_max": 1e-16, "alpha_min": 0.0, "beta_min": 0.0,
                     "ood": None},
        )

    def test_roundtrip_byte_identical(self):
        report = self.make_report()
        text = report.to_json()
        back = metrics.RunReport.from_json(text)
        assert back.to_json() == text

    def test_validate_monotone_epochs(self):
        report = self.make_report()
        report.epochs.append(dict(report.epochs[0]))
        with pytest.raises(ValueError):
            report.validate()

    def test_metrics_csv_shape(self):
        text = metrics.metrics_csv(self.make_report())
        lines = text.strip().split("\n")
        assert lines[0].split(",") == metrics.METRICS_CSV_COLUMNS
        assert len(lines) == 2
        assert len(lines[1].split(",")) == len(metrics.METRICS_CSV_COLUMNS)
