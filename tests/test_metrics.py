"""Evaluation metrics against brute-force oracles, report round-trips."""

import numpy as np
import pytest

from noisylab import contrastive, data, metrics, net, trainer
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


def purity_counts(pc, beta, y):
    """Purity totals of the two-view bank over samples (pc, beta, y), as the
    contrastive head gradient returns them; the embeddings do not matter."""
    raw = np.random.default_rng(0).standard_normal((2 * len(pc), 3))
    return contrastive.cdcl_head(raw, np.asarray(pc), np.asarray(beta, dtype=float),
                                 contrastive.CdclConfig(), np.asarray(y))[2]


class TestPairPurity:
    """Positive-pair purity from the contrastive loss's own masks: bank rows
    (two views per sample) sharing a pseudo-label are positives, each gated
    by the product of min-max normalized reliabilities; raw = matches /
    pairs, gated = gated matches / gate mass."""

    def test_all_matching(self):
        matches, pairs, wmatch, wsum = purity_counts([0, 0], [2.0, 2.0], [5, 5])
        assert matches / pairs == 1.0 and wmatch / wsum == 1.0

    def test_constant_weights_equal_raw(self):
        rng = np.random.default_rng(0)
        pc = rng.integers(0, 2, 10)
        y = rng.integers(0, 2, 10)
        matches, pairs, wmatch, wsum = purity_counts(pc, np.full(10, 0.7), y)
        assert wmatch / wsum == pytest.approx(matches / pairs)

    def test_hand_fixture(self):
        # normalized reliabilities (0.5, 0.5, 1, 1, 0); bank rows 0-4 weak,
        # 5-9 strong. Class 0 rows {0,1,5,6}: 12 pairs, all matching, weight
        # 0.25 each. Class 1 rows {2,3,7,8}: 12 pairs, 4 matching (each
        # sample with its other view), weight 1. Class 2 rows {4,9}: 2
        # matching pairs, weight 0. raw = 18/26, gated = (3+4)/(3+12) = 7/15
        pc = [0, 0, 1, 1, 2]
        beta = [0.5, 0.5, 1.0, 1.0, 0.0]
        y = [0, 0, 1, 2, 3]
        matches, pairs, wmatch, wsum = purity_counts(pc, beta, y)
        assert (matches, pairs) == (18.0, 26.0)
        assert wmatch / wsum == pytest.approx(7.0 / 15.0)

    def test_empty_weights_reported_absent(self):
        # with no contrastive term no pair is gated, and an epoch reports
        # no purity rather than a ratio over zero gate mass
        pool = data.inject_symmetric_noise(data.make_blobs(2, 20, 3, 0.5, seed=1), 0.2, seed=2)
        train, meta = data.split_meta(pool, 4, seed=3)
        cfg = trainer.TrainConfig(epochs=2, batch_size=16, warmup_start=0, warmup_full=1,
                                  hidden=8, proj=4, use_cdcl=False)
        report, _ = trainer.co_train(train, meta, data.make_blobs(2, 5, 3, 0.5, seed=4), cfg)
        rec = report.epochs[1]
        assert rec["warmup_w"] == 1.0
        assert rec["purity_raw"] is None and rec["purity_gated"] is None


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

    def test_average_ranks_match_scipy_with_ties(self):
        from scipy.stats import rankdata

        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 600))
            levels = int(rng.integers(1, 30))
            for values in (rng.integers(0, levels, n) / levels, rng.random(n)):
                assert np.array_equal(metrics._average_ranks(values),
                                      rankdata(values, method="average")), seed

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

    def test_matches_loop_form_on_heavy_ties(self):
        # few distinct levels, so most candidate thresholds are shared by
        # many ID and OOD scores, and sets of one score per side
        rng = np.random.default_rng(5)
        for _ in range(300):
            levels = int(rng.integers(1, 6))
            id_s = rng.integers(0, levels, int(rng.integers(1, 40))) / levels
            ood_s = rng.integers(0, levels, int(rng.integers(1, 40))) / levels
            s = metrics.OodScoreSet(id_s, ood_s)
            assert metrics.fpr_at_95_tpr(s) == sweep_fpr_at_tpr(id_s, ood_s)
        s = metrics.OodScoreSet(np.full(19, 0.5), np.array([0.5, 0.4]))
        assert metrics.fpr_at_95_tpr(s) == 0.5

    def test_matches_loop_form_on_signed_zeros_and_ties(self):
        # -0.0 and 0.0 are one candidate threshold, which either sign stands
        # for; each case puts the 95% threshold at or next to the zeros
        cases = [
            ([-0.0] * 10 + [0.0] * 9 + [-0.5], [0.0, -0.0, -0.0, -0.5, 0.5]),
            ([0.0] * 19 + [-1.0], [-0.0, -0.0, -1.0, -1.0]),
            ([-0.0, 0.0] * 10, [0.0, -0.0, 0.25, -0.25]),
            ([0.5] * 18 + [-0.0, 0.0], [-0.0, 0.5, 0.0, 0.5, -0.1]),
            ([0.25] * 10 + [-0.0] * 9 + [0.0], [0.25, 0.25, -0.0, 0.0, -0.0]),
        ]
        rng = np.random.default_rng(6)
        for _ in range(200):
            cases.append((rng.choice([-0.0, 0.0, 0.5, -0.5], int(rng.integers(1, 30))),
                          rng.choice([-0.0, 0.0, 0.5, -0.5], int(rng.integers(1, 30)))))
        for id_s, ood_s in cases:
            id_s, ood_s = np.array(id_s), np.array(ood_s)
            s = metrics.OodScoreSet(id_s, ood_s)
            assert metrics.fpr_at_95_tpr(s) == sweep_fpr_at_tpr(id_s, ood_s), (id_s, ood_s)

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
        x = np.random.default_rng(0).standard_normal((5, 3))
        scores = metrics.msp_scores_ensemble(net.stack_params([params]), x)
        assert np.allclose(scores, 0.25)

    def test_dominant_logit_limit(self):
        assert net.softmax(np.array([50.0, 0.0, 0.0])).max() > 1 - 1e-12

    def test_matches_shared_softmax(self):
        arch = net.Architecture(3, 4, 4, 2)
        rng = np.random.default_rng(1)
        params = net.ModelParams(arch, 0.5 * rng.standard_normal(arch.n_params))
        x = rng.standard_normal((6, 3))
        scores = metrics.msp_scores_ensemble(net.stack_params([params]), x)
        logits = net.forward_batch(params, x).logits
        assert np.allclose(scores, net.softmax(logits).max(axis=1), atol=1e-12)

    def test_scores_in_range(self):
        arch = net.Architecture(3, 4, 4, 2)
        rng = np.random.default_rng(2)
        params = net.ModelParams(arch, rng.standard_normal(arch.n_params))
        scores = metrics.msp_scores_ensemble(net.stack_params([params]), rng.standard_normal((50, 3)))
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

    def test_metrics_csv_shape(self):
        text = metrics.metrics_csv(self.make_report())
        lines = text.strip().split("\n")
        assert lines[0].split(",") == metrics.METRICS_CSV_COLUMNS
        assert len(lines) == 2
        assert len(lines[1].split(",")) == len(metrics.METRICS_CSV_COLUMNS)
