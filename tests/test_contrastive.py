"""Consensus-gated contrastive loss: bank construction, gating algebra,
the vectorized loss against the scalar double loop, and gradients."""

import numpy as np
import pytest

from noisylab import contrastive, net
from noisylab.oracles import (cdcl_grad, consensus_weights, dense_cdcl_feature_grad,
                              dense_loss_pieces, fd_gradient, max_rel_error, naive_infonce,
                              pair_match_counts, positive_sets)

CFG = contrastive.CdclConfig()


def unit_rows(rng, n, p=5):
    return net.l2_normalize(rng.standard_normal((n, p)))


def manual_bank(z, pseudo_half, beta_half):
    return contrastive.FeatureBank(
        z=z,
        pseudo_class=np.concatenate([pseudo_half, pseudo_half]),
        beta=np.concatenate([beta_half, beta_half]),
        degenerate=np.zeros(z.shape[0], dtype=bool),
    )


def cdcl_loss(bank, cfg=CFG):
    return contrastive.cdcl_feature_grad(bank, cfg)[0]


class TestNormalizeBeta:
    def test_extremes_map_to_unit_interval(self):
        beta = np.array([0.2, 1.7, 0.9])
        out = contrastive.normalize_beta(beta)
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(1.5 / (1.5 + 1e-8))
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_degenerate_batch_falls_back_to_ones(self):
        # the literal min-max formula would zero a constant batch and
        # silently disable the loss; the fallback keeps it active
        beta = np.full(6, 0.42)
        literal = (beta - beta.min()) / (beta.max() - beta.min() + 1e-8)
        assert np.all(literal == 0.0)
        assert np.all(contrastive.normalize_beta(beta) == 1.0)


class TestPositiveSets:
    def test_all_distinct_classes_only_other_view(self):
        pc = np.array([0, 1, 2, 0, 1, 2])
        sets = positive_sets(pc)
        assert all(len(s) == 1 for s in sets)
        assert sets[0][0] == 3 and sets[3][0] == 0

    def test_all_same_class(self):
        sets = positive_sets(np.zeros(6, dtype=int))
        assert all(len(s) == 5 for s in sets)
        assert all(i not in s for i, s in enumerate(sets))

    def test_two_source_enumeration(self):
        sets = positive_sets(np.array([0, 1, 0, 1]))
        assert list(sets[0]) == [2]
        assert list(sets[1]) == [3]


class TestConsensusWeights:
    def test_product_rule(self):
        bnorm = np.array([1.0, 0.5])
        weights = consensus_weights(bnorm, [np.array([1]), np.array([0])])
        assert weights[0][0] == pytest.approx(0.5)
        assert weights[1][0] == pytest.approx(0.5)

    def test_zero_side_annihilates(self):
        bnorm = np.array([0.0, 0.8, 0.4])
        positives = positive_sets(np.zeros(3, dtype=int))
        weights = consensus_weights(bnorm, positives)
        assert np.all(weights[0] == 0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        bnorm = rng.random(8)
        positives = positive_sets(np.zeros(8, dtype=int))
        weights = consensus_weights(bnorm, positives)
        for i in range(8):
            for idx, j in enumerate(positives[i]):
                back = list(positives[j]).index(i)
                assert weights[i][idx] == pytest.approx(weights[j][back])


class TestCdclLoss:
    def test_log3_symmetric_hand_case(self):
        # four unit rows with all pairwise similarities equal (regular
        # tetrahedron), one positive each, all gates one: every anchor term
        # is log 3
        z4 = np.array([
            [1.0, 1.0, 1.0],
            [1.0, -1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
        ]) / np.sqrt(3.0)
        bank = manual_bank(z4, np.array([0, 1]), np.array([0.5, 0.5]))
        assert cdcl_loss(bank) == pytest.approx(np.log(3.0), abs=1e-9)

    def test_all_zero_gates_zero_loss(self):
        rng = np.random.default_rng(1)
        z = unit_rows(rng, 8)
        bank = manual_bank(z, np.array([0, 0, 1, 1]), np.array([0.3, 0.3, 0.3, 0.3]))
        bank.beta = np.where(np.arange(8) % 2 == 0, 0.0, 1.0)  # every pair hits a zero
        pc = np.zeros(8, dtype=int)
        bank.pseudo_class = pc
        bnorm = contrastive.normalize_beta(bank.beta)
        w = np.outer(bnorm, bnorm)
        assert (w[bnorm == 0.0] == 0.0).all()

    def test_matches_naive_double_loop(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            half = int(rng.integers(2, 17))
            z = unit_rows(rng, 2 * half)
            pc = rng.integers(0, 3, half)
            beta = rng.random(half)
            bank = manual_bank(z, pc, beta)
            fast = cdcl_loss(bank)
            slow = naive_infonce(bank.z, bank.pseudo_class, bank.beta, CFG.tau)
            assert abs(fast - slow) < 1e-10

    def test_no_positives_returns_zero(self):
        z = unit_rows(np.random.default_rng(3), 4)
        bank = contrastive.FeatureBank(
            z=z, pseudo_class=np.array([0, 1, 2, 3]),
            beta=np.array([0.1, 0.4, 0.2, 0.9]), degenerate=np.zeros(4, dtype=bool))
        assert cdcl_loss(bank) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        z = unit_rows(rng, 12)
        pc = np.concatenate([rng.integers(0, 2, 6)] * 2)
        beta = np.concatenate([rng.random(6)] * 2)
        bank = contrastive.FeatureBank(z=z, pseudo_class=pc, beta=beta,
                                       degenerate=np.zeros(12, dtype=bool))
        base = cdcl_loss(bank)
        perm = rng.permutation(12)
        permuted = contrastive.FeatureBank(z=z[perm], pseudo_class=pc[perm], beta=beta[perm],
                                           degenerate=np.zeros(12, dtype=bool))
        assert abs(cdcl_loss(permuted) - base) < 1e-10

    def test_large_temperature_limit(self):
        # softmax over candidates approaches uniform: each gated term
        # approaches w_ij * log(2N - 1)
        rng = np.random.default_rng(5)
        half = 4
        z = unit_rows(rng, 2 * half)
        pc = rng.integers(0, 2, half)
        beta = rng.random(half)
        bank = manual_bank(z, pc, beta)
        hot = contrastive.CdclConfig(tau=1e4)
        loss = cdcl_loss(bank, hot)
        bnorm = contrastive.normalize_beta(bank.beta)
        pos = positive_sets(bank.pseudo_class)
        expected = np.mean([
            np.log(2 * half - 1) * np.mean(bnorm[i] * bnorm[p])
            for i, p in enumerate(pos) if len(p)
        ])
        assert abs(loss - expected) < 1e-3

    def test_gate_linearity_per_pair(self):
        # the loss is linear in any single gate w_ij for fixed features
        rng = np.random.default_rng(6)
        z = unit_rows(rng, 8)
        pc = np.array([0, 0, 1, 1])
        beta = rng.random(4)

        def loss_with_weights(wmat, bank):
            logp, pos, _, counts, valid = dense_loss_pieces(bank, CFG)
            gated = (wmat * np.where(pos, logp, 0.0)).sum(axis=1)
            return float((-gated[valid] / counts[valid]).mean())

        bank = manual_bank(z, pc, beta)
        bnorm = contrastive.normalize_beta(bank.beta)
        w = np.outer(bnorm, bnorm)
        base = loss_with_weights(w, bank)
        bumped = w.copy()
        i, j = 0, 4  # a positive pair (same source, two views)
        bumped[i, j] += 0.25
        delta = loss_with_weights(bumped, bank) - base
        logp, pos, _, counts, valid = dense_loss_pieces(bank, CFG)
        expected = -0.25 * logp[i, j] / (counts[i] * valid.sum())
        assert abs(delta - expected) < 1e-10


class TestBankAndGradient:
    def params(self, seed=0):
        arch = net.Architecture(3, 4, 2, 3)
        rng = np.random.default_rng(seed)
        return net.ModelParams(arch, 0.4 * rng.standard_normal(arch.n_params))

    def test_build_bank_row_norms_and_duplication(self):
        params = self.params(1)
        rng = np.random.default_rng(1)
        weak = rng.standard_normal((5, 3))
        strong = rng.standard_normal((5, 3))
        pc = rng.integers(0, 2, 5)
        beta = rng.random(5)
        raw = net.forward_batch(params, np.concatenate([weak, strong])).emb
        bank = contrastive._bank_from_raw(raw, pc, beta)
        assert bank.rows == 10
        assert np.allclose(np.linalg.norm(bank.z, axis=1), 1.0, atol=1e-9)
        assert not bank.degenerate.any()
        assert np.array_equal(bank.pseudo_class, np.concatenate([pc, pc]))
        assert np.array_equal(bank.beta, np.concatenate([beta, beta]))

    def test_observed_labels_cannot_enter(self):
        import inspect

        source = inspect.getsource(contrastive)
        assert "y_obs" not in source

    def test_gradient_matches_finite_differences(self):
        params = self.params(2)
        rng = np.random.default_rng(2)
        weak = rng.standard_normal((4, 3))
        strong = rng.standard_normal((4, 3))
        pc = np.array([0, 1, 0, 1])
        beta = rng.random(4)
        _, grad = cdcl_grad(params, weak, strong, pc, beta, CFG)

        def value(flat):
            raw = net.forward_batch(net.ModelParams(params.arch, flat),
                                    np.concatenate([weak, strong])).emb
            return cdcl_loss(contrastive._bank_from_raw(raw, pc, beta))

        fd = fd_gradient(value, params.flat)
        assert max_rel_error(fd, grad) < 1e-5

    def test_grad_loss_value_matches_bank_loss(self):
        params = self.params(3)
        rng = np.random.default_rng(3)
        weak = rng.standard_normal((6, 3))
        strong = rng.standard_normal((6, 3))
        pc = rng.integers(0, 2, 6)
        beta = rng.random(6)
        loss_g, _ = cdcl_grad(params, weak, strong, pc, beta, CFG)
        raw = net.forward_batch(params, np.concatenate([weak, strong])).emb
        bank = contrastive._bank_from_raw(raw, pc, beta)
        assert loss_g == pytest.approx(cdcl_loss(bank), abs=1e-12)

    def test_purity_counters_agree(self):
        # the totals the fused head gradient returns vs the loop oracle
        params = self.params(4)
        rng = np.random.default_rng(4)
        weak = rng.standard_normal((7, 3))
        strong = rng.standard_normal((7, 3))
        pc = rng.integers(0, 3, 7)
        beta = rng.random(7)
        y = rng.integers(0, 3, 7)
        raw = net.forward_batch(params, np.concatenate([weak, strong])).emb
        _, _, fused = contrastive.cdcl_head(raw, pc, beta, CFG, y)
        pc2, y2 = np.concatenate([pc, pc]), np.concatenate([y, y])
        positives = positive_sets(pc2)
        weights = consensus_weights(
            contrastive.normalize_beta(np.concatenate([beta, beta])), positives)
        assert np.allclose(pair_match_counts(positives, weights, y2), fused, rtol=1e-12)


class TestDenseParity:
    """Production vs the dense (2N)^2 form: the gradient bit for bit, the
    loss and purity totals (per-class sums in production) to 1e-12."""

    @staticmethod
    def random_bank(rng, half, classes, degenerate=0, uniform_beta=False):
        beta = np.full(half, 0.4) if uniform_beta else rng.random(half)
        bank = manual_bank(unit_rows(rng, 2 * half), rng.choice(classes, half), beta)
        bank.z[:degenerate] = 0.0
        bank.degenerate[:degenerate] = True
        return bank, rng.integers(0, 3, half)

    def assert_parity(self, bank, y, buffers):
        loss, dz, purity = contrastive.cdcl_feature_grad(bank, CFG, y, buffers)
        loss_d, dz_d, purity_d = dense_cdcl_feature_grad(bank, CFG, y)
        assert np.array_equal(dz, dz_d)
        # relative to 1e-12; values below 1e-2 are compared absolutely to 1e-14,
        # since the 2N = 2 loss is zero only up to rounding
        assert max_rel_error(np.r_[loss, purity], np.r_[loss_d, purity_d],
                             zero_floor=1e-2) < 1e-12

    def test_random_banks(self):
        buffers = net.Buffers()
        for seed in range(12):
            rng = np.random.default_rng(seed)
            bank, y = self.random_bank(rng, int(rng.integers(2, 40)), np.arange(4))
            self.assert_parity(bank, y, buffers)

    @pytest.mark.parametrize("half, classes, degenerate, uniform_beta", [
        (9, [0], 0, False),
        (9, [0, 1, 2], 3, False),
        (9, [0, 3], 0, False),
        (9, [0, 1, 2], 0, True),
        (1, [0, 1], 0, False),
    ], ids=["single_class", "degenerate_rows", "class_ids_0_3", "uniform_beta", "2N_2"])
    def test_edge_banks(self, half, classes, degenerate, uniform_beta):
        rng = np.random.default_rng(half + len(classes))
        bank, y = self.random_bank(rng, half, classes, degenerate, uniform_beta)
        self.assert_parity(bank, y, net.Buffers())

    def test_no_anchor_with_a_positive(self):
        z = unit_rows(np.random.default_rng(3), 4)
        bank = contrastive.FeatureBank(
            z=z, pseudo_class=np.array([0, 1, 2, 3]), beta=np.array([0.1, 0.4, 0.2, 0.9]),
            degenerate=np.zeros(4, dtype=bool))
        y = np.array([0, 1])
        self.assert_parity(bank, y, net.Buffers())
        assert contrastive.cdcl_feature_grad(bank, CFG, y)[0] == 0.0

    def test_buffers_reused_across_bank_sizes(self):
        # a full batch of several row blocks, the smaller last batch, then a
        # full batch again
        buffers = net.Buffers()
        rng = np.random.default_rng(11)
        for half in (80, 7, 80):
            bank, y = self.random_bank(rng, half, np.arange(4))
            self.assert_parity(bank, y, buffers)
