"""Consensus-gated contrastive loss: the head's row work, gating algebra,
the vectorized loss against the scalar double loop, and gradients."""

import numpy as np
import pytest

from noisylab import contrastive, net
from noisylab.oracles import (cdcl_grad, consensus_weights, dense_cdcl_feature_grad,
                              dense_loss_pieces, fd_gradient, l2_normalize, max_rel_error,
                              naive_infonce, pair_match_counts, positive_sets)

CFG = contrastive.CdclConfig()


def unit_rows(rng, n, p=5):
    return l2_normalize(rng.standard_normal((n, p)))


def two_views(pseudo_half, beta_half):
    """Per-row pseudo-labels and reliabilities of a bank whose two halves are
    the same samples' two views."""
    return np.concatenate([pseudo_half, pseudo_half]), np.concatenate([beta_half, beta_half])


def cdcl_loss(z, pseudo_class, beta, cfg=CFG):
    return contrastive.cdcl_feature_grad(z, pseudo_class, beta, cfg)[0]


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
        pc, beta = two_views(np.array([0, 1]), np.array([0.5, 0.5]))
        assert cdcl_loss(z4, pc, beta) == pytest.approx(np.log(3.0), abs=1e-9)

    def test_zero_reliability_anchors_add_nothing(self):
        # beta alternates 0 and 1 across samples, so half the anchors have a
        # normalized reliability of 0: their terms drop out of the sum, while
        # each still counts in the mean over anchors with a positive
        rng = np.random.default_rng(7)
        z = unit_rows(rng, 16)
        pc, beta = two_views(rng.integers(0, 3, 8), np.where(np.arange(8) % 2 == 0, 0.0, 1.0))
        bnorm = contrastive.normalize_beta(beta)
        loss = cdcl_loss(z, pc, beta)
        assert loss == pytest.approx(naive_infonce(z, pc, beta, CFG.tau), rel=1e-12)
        anchors = [i for i, p in enumerate(positive_sets(pc)) if len(p)]
        live = [i for i in anchors if bnorm[i] > 0.0]
        assert 0 < len(live) < len(anchors)
        kept = 0.0  # the terms of the anchors with a nonzero reliability only
        for i in live:
            others = np.delete(z, i, axis=0) @ z[i] / CFG.tau
            log_denom = np.log(np.exp(others).sum())
            positives = positive_sets(pc)[i]
            kept -= np.mean(bnorm[i] * bnorm[positives] * (z[positives] @ z[i] / CFG.tau
                                                            - log_denom))
        assert loss == pytest.approx(kept / len(anchors), rel=1e-12)

    def test_matches_naive_double_loop(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            half = int(rng.integers(2, 17))
            z = unit_rows(rng, 2 * half)
            pc, beta = two_views(rng.integers(0, 3, half), rng.random(half))
            fast = cdcl_loss(z, pc, beta)
            slow = naive_infonce(z, pc, beta, CFG.tau)
            assert abs(fast - slow) < 1e-10

    def test_no_positives_returns_zero(self):
        z = unit_rows(np.random.default_rng(3), 4)
        assert cdcl_loss(z, np.array([0, 1, 2, 3]), np.array([0.1, 0.4, 0.2, 0.9])) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        z = unit_rows(rng, 12)
        pc = np.concatenate([rng.integers(0, 2, 6)] * 2)
        beta = np.concatenate([rng.random(6)] * 2)
        base = cdcl_loss(z, pc, beta)
        perm = rng.permutation(12)
        assert abs(cdcl_loss(z[perm], pc[perm], beta[perm]) - base) < 1e-10

    def test_large_temperature_limit(self):
        # softmax over candidates approaches uniform: each gated term
        # approaches w_ij * log(2N - 1)
        rng = np.random.default_rng(5)
        half = 4
        z = unit_rows(rng, 2 * half)
        pc, beta = two_views(rng.integers(0, 2, half), rng.random(half))
        hot = contrastive.CdclConfig(tau=1e4)
        loss = cdcl_loss(z, pc, beta, hot)
        bnorm = contrastive.normalize_beta(beta)
        pos = positive_sets(pc)
        expected = np.mean([
            np.log(2 * half - 1) * np.mean(bnorm[i] * bnorm[p])
            for i, p in enumerate(pos) if len(p)
        ])
        assert abs(loss - expected) < 1e-3

    def test_gate_linearity_per_pair(self):
        # the loss is linear in any single gate w_ij for fixed features
        rng = np.random.default_rng(6)
        z = unit_rows(rng, 8)
        pc, beta = two_views(np.array([0, 0, 1, 1]), rng.random(4))
        logp, pos, w, counts, valid = dense_loss_pieces(z, pc, beta, CFG)

        def loss_with_weights(wmat):
            gated = (wmat * np.where(pos, logp, 0.0)).sum(axis=1)
            return float((-gated[valid] / counts[valid]).mean())

        base = loss_with_weights(w)
        bumped = w.copy()
        i, j = 0, 4  # a positive pair (same source, two views)
        bumped[i, j] += 0.25
        delta = loss_with_weights(bumped) - base
        expected = -0.25 * logp[i, j] / (counts[i] * valid.sum())
        assert abs(delta - expected) < 1e-10


class TestBankAndGradient:
    def params(self, seed=0):
        arch = net.Architecture(3, 4, 2, 3)
        rng = np.random.default_rng(seed)
        return net.ModelParams(arch, 0.4 * rng.standard_normal(arch.n_params))

    def test_build_bank_row_norms_and_duplication(self):
        # cdcl_head normalizes the raw rows and gives each sample's
        # pseudo-label and reliability to both its views
        params = self.params(1)
        rng = np.random.default_rng(1)
        weak = rng.standard_normal((5, 3))
        strong = rng.standard_normal((5, 3))
        pc = rng.integers(0, 2, 5)
        beta = rng.random(5)
        y = rng.integers(0, 2, 5)
        raw = net.forward_batch(params, np.concatenate([weak, strong])).emb
        z = l2_normalize(raw)
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-9)
        loss, draw, purity = contrastive.cdcl_head(raw, pc, beta, CFG, y)
        loss_z, dz, purity_z = contrastive.cdcl_feature_grad(z, *two_views(pc, beta), CFG, y)
        contrastive._normalization_backward(raw, np.linalg.norm(raw, axis=1, keepdims=True),
                                            dz, np.zeros(10, dtype=bool))
        assert loss == loss_z
        assert np.array_equal(draw, dz)
        assert np.array_equal(purity, purity_z)

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
            return contrastive.cdcl_head(raw, pc, beta, CFG)[0]

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
        assert loss_g == pytest.approx(cdcl_loss(l2_normalize(raw), *two_views(pc, beta)),
                                       abs=1e-12)

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
        z = unit_rows(rng, 2 * half)
        z[:degenerate] = 0.0
        return (z, *two_views(rng.choice(classes, half), beta)), rng.integers(0, 3, half)

    def assert_parity(self, bank, y, buffers):
        loss, dz, purity = contrastive.cdcl_feature_grad(*bank, CFG, y, buffers)
        loss_d, dz_d, purity_d = dense_cdcl_feature_grad(*bank, CFG, y)
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
        (65, [0, 1, 2], 3, False),
        (100, [0], 2, False),
    ], ids=["single_class", "degenerate_rows", "class_ids_0_3", "uniform_beta", "2N_2",
            "2N_130_degenerate_rows", "2N_200_single_class"])
    def test_edge_banks(self, half, classes, degenerate, uniform_beta):
        rng = np.random.default_rng(half + len(classes))
        bank, y = self.random_bank(rng, half, classes, degenerate, uniform_beta)
        self.assert_parity(bank, y, net.Buffers())

    def test_no_anchor_with_a_positive(self):
        bank = (unit_rows(np.random.default_rng(3), 4), np.array([0, 1, 2, 3]),
                np.array([0.1, 0.4, 0.2, 0.9]))
        y = np.array([0, 1])
        self.assert_parity(bank, y, net.Buffers())
        assert contrastive.cdcl_feature_grad(*bank, CFG, y)[0] == 0.0

    def test_buffers_reused_across_bank_sizes(self):
        # a full batch of several row blocks, the smaller last batch, then a
        # full batch again; first at the wide benchmark's sizes
        buffers = net.Buffers()
        rng = np.random.default_rng(11)
        for half in (256, 168, 80, 7, 80):
            bank, y = self.random_bank(rng, half, np.arange(4))
            self.assert_parity(bank, y, buffers)

    def test_warm_sweep_allocates_less_than_one_row_block(self):
        # the sweep's block temporaries live in the workspace, so a warm call
        # at 2N = 512 peaks below one fresh 64-row block of the matrix
        import tracemalloc

        rng = np.random.default_rng(5)
        (z, pc, beta), y = self.random_bank(rng, 256, np.arange(4))
        buffers, out = net.Buffers(), np.empty_like(z)
        contrastive.cdcl_feature_grad(z, pc, beta, CFG, y, buffers, out)
        tracemalloc.start()
        try:
            contrastive.cdcl_feature_grad(z, pc, beta, CFG, y, buffers, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 512 * 8


class TestStackedHead:
    """A stack of banks (leading net axis) against each net's single-bank
    call: loss, gradient and purity totals bit for bit."""

    @staticmethod
    def random_stack(rng, half, classes=(3, 3), p=5):
        raw = rng.standard_normal((2, 2 * half, p))
        pc = np.stack([rng.integers(0, c, half) for c in classes])
        return raw, pc, rng.random((2, half)), rng.integers(0, 3, half)

    def assert_slices(self, raw, pc, beta, y, out=None):
        buffers = net.Buffers()
        loss, draw, purity = contrastive.cdcl_head(raw, pc, beta, CFG, y, buffers, out=out)
        assert loss.shape == (2,) and purity.shape == (2, 4)
        if out is not None:
            assert draw is out
        for k in range(2):
            loss_k, draw_k, purity_k = contrastive.cdcl_head(raw[k], pc[k], beta[k], CFG, y,
                                                             net.Buffers())
            assert loss[k] == loss_k
            assert np.array_equal(draw[k], draw_k)
            assert np.array_equal(purity[k], purity_k)
        return loss, draw, purity

    def test_random_stacks(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            self.assert_slices(*self.random_stack(rng, int(rng.integers(1, 90))))

    @pytest.mark.parametrize("classes", [(2, 4), (4, 1), (1, 7)])
    def test_different_largest_pseudo_classes(self, classes):
        # each net's class sums run over its own class count
        rng = np.random.default_rng(sum(classes))
        for half in (8, 16, 40):
            raw, pc, beta, y = self.random_stack(rng, half, classes)
            pc[:, 0] = np.array(classes) - 1  # each net reaches its largest class
            self.assert_slices(raw, pc, beta, y)

    def test_no_spread_in_one_net(self):
        raw, pc, beta, y = self.random_stack(np.random.default_rng(22), 8)
        beta[1] = 0.3  # RANGE_EPS fallback: uniform gates in net 2 only
        bnorm = contrastive.normalize_beta(beta)
        assert np.all(bnorm[1] == 1.0) and not np.all(bnorm[0] == 1.0)
        self.assert_slices(raw, pc, beta, y)

    def test_degenerate_row_in_one_net(self):
        raw, pc, beta, y = self.random_stack(np.random.default_rng(23), 8)
        raw[0, [2, 11]] = 0.0
        _, draw, _ = self.assert_slices(raw, pc, beta, y)
        assert np.all(draw[0, [2, 11]] == 0.0) and np.all(draw[1] != 0.0)

    def test_partial_batch_into_a_wider_gradient_buffer(self):
        # 2B = 16 rows written into the first rows of each net's block of a
        # larger array, as the network step's "demb" rows are
        raw, pc, beta, y = self.random_stack(np.random.default_rng(24), 8)
        demb = np.full((2, 24, 5), np.nan)
        self.assert_slices(raw, pc, beta, y, out=demb[:, :16])
        assert np.isnan(demb[:, 16:]).all()

    def test_one_net_without_a_positive(self):
        rng = np.random.default_rng(25)
        z = unit_rows(rng, 8).reshape(2, 4, 5)
        pc = np.array([[0, 1, 0, 1], [0, 1, 2, 3]])  # no positive in net 2
        beta = rng.random((2, 4))
        y = np.array([0, 1])
        loss, dz, purity = contrastive.cdcl_feature_grad(z, pc, beta, CFG, y, net.Buffers())
        for k in range(2):
            loss_k, dz_k, purity_k = dense_cdcl_feature_grad(z[k], pc[k], beta[k], CFG, y)
            assert np.array_equal(dz[k], dz_k)
            assert loss[k] == pytest.approx(loss_k, rel=1e-12)
            assert np.allclose(purity[k], purity_k, rtol=1e-12)
        assert loss[1] == 0.0 and np.all(dz[1] == 0.0)

    @pytest.mark.parametrize("half", [8, 32, 33, 65], ids=["2N_16", "2N_64", "2N_66", "2N_130"])
    def test_one_block_sweep_equals_the_per_net_sweep(self, half):
        # up to 2N = 64 the stack's (2N)^2 passes run as one sweep, above it
        # net by net (at 2N = 130 over three row blocks, the last partial);
        # either way each net's slice has the bits of its own call, whose
        # gradient has the dense form's bits. The nets' pseudo-labels cover
        # 4 and 2 classes, then net 2 has no anchor with a positive (every
        # row its own class), so its a = 0 must give a +0.0 gradient; the
        # gradients' bytes are compared, which tells zeros' signs apart
        rng = np.random.default_rng(half)
        z = unit_rows(rng, 4 * half).reshape(2, 2 * half, 5)
        beta = np.stack([np.concatenate([b, b]) for b in rng.random((2, half))])
        y = rng.integers(0, 3, half)
        two_nets = np.stack([np.tile(rng.integers(0, c, half), 2) for c in (4, 2)])
        no_anchor = np.stack([two_nets[0], np.arange(2 * half)])
        buffers = net.Buffers()  # shared, as a run's steps share it
        for pc in (two_nets, no_anchor):
            loss, dz, purity = contrastive.cdcl_feature_grad(z, pc, beta, CFG, y, buffers)
            for k in range(2):
                loss_k, dz_k, purity_k = contrastive.cdcl_feature_grad(z[k], pc[k], beta[k],
                                                                       CFG, y, net.Buffers())
                assert loss[k] == loss_k
                assert dz[k].tobytes() == dz_k.tobytes()
                assert np.array_equal(purity[k], purity_k)
                assert np.array_equal(dz_k, dense_cdcl_feature_grad(z[k], pc[k], beta[k],
                                                                    CFG, y)[1])
        assert loss[1] == 0.0 and dz[1].tobytes() == np.zeros_like(dz[1]).tobytes()
        raw, pc, beta, y = self.random_stack(rng, half, classes=(4, 2))
        self.assert_slices(raw, pc, beta, y)
