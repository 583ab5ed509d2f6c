"""Consensus-gated contrastive loss: bank construction, gating algebra,
the vectorized loss against the scalar double loop, and gradients."""

import numpy as np
import pytest

from noisylab import contrastive, net
from noisylab.oracles import fd_gradient, max_rel_error, naive_infonce, pair_match_counts

CFG = contrastive.CdclConfig()


def unit_rows(rng, n, p=5):
    return net.l2_normalize(rng.standard_normal((n, p)))


def manual_bank(z, pseudo_half, beta_half):
    n2 = z.shape[0]
    return contrastive.FeatureBank(
        z=z,
        pseudo_class=np.concatenate([pseudo_half, pseudo_half]),
        beta=np.concatenate([beta_half, beta_half]),
        source_ids=np.concatenate([np.arange(n2 // 2)] * 2),
        degenerate=np.zeros(n2, dtype=bool),
    )


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
        sets = contrastive.positive_sets(pc)
        assert all(len(s) == 1 for s in sets)
        assert sets[0][0] == 3 and sets[3][0] == 0

    def test_all_same_class(self):
        sets = contrastive.positive_sets(np.zeros(6, dtype=int))
        assert all(len(s) == 5 for s in sets)
        assert all(i not in s for i, s in enumerate(sets))

    def test_two_source_enumeration(self):
        sets = contrastive.positive_sets(np.array([0, 1, 0, 1]))
        assert list(sets[0]) == [2]
        assert list(sets[1]) == [3]


class TestConsensusWeights:
    def test_product_rule(self):
        bnorm = np.array([1.0, 0.5])
        weights = contrastive.consensus_weights(bnorm, [np.array([1]), np.array([0])])
        assert weights[0][0] == pytest.approx(0.5)
        assert weights[1][0] == pytest.approx(0.5)

    def test_zero_side_annihilates(self):
        bnorm = np.array([0.0, 0.8, 0.4])
        positives = contrastive.positive_sets(np.zeros(3, dtype=int))
        weights = contrastive.consensus_weights(bnorm, positives)
        assert np.all(weights[0] == 0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        bnorm = rng.random(8)
        positives = contrastive.positive_sets(np.zeros(8, dtype=int))
        weights = contrastive.consensus_weights(bnorm, positives)
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
        assert contrastive.cdcl_loss(bank, CFG) == pytest.approx(np.log(3.0), abs=1e-9)

    def test_all_zero_gates_zero_loss(self):
        rng = np.random.default_rng(1)
        z = unit_rows(rng, 8)
        bank = manual_bank(z, np.array([0, 0, 1, 1]), np.array([0.3, 0.3, 0.3, 0.3]))
        bank.beta = np.where(np.arange(8) % 2 == 0, 0.0, 1.0)  # every pair hits a zero
        pc = np.zeros(8, dtype=int)
        bank.pseudo_class = pc
        bnorm = contrastive.normalize_beta(bank.beta, CFG.range_eps)
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
            fast = contrastive.cdcl_loss(bank, CFG)
            slow = naive_infonce(bank.z, bank.pseudo_class, bank.beta,
                                 CFG.tau, CFG.range_eps)
            assert abs(fast - slow) < 1e-10

    def test_no_positives_returns_zero(self):
        z = unit_rows(np.random.default_rng(3), 4)
        bank = contrastive.FeatureBank(
            z=z, pseudo_class=np.array([0, 1, 2, 3]),
            beta=np.array([0.1, 0.4, 0.2, 0.9]),
            source_ids=np.arange(4), degenerate=np.zeros(4, dtype=bool))
        assert contrastive.cdcl_loss(bank, CFG) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        z = unit_rows(rng, 12)
        pc = np.concatenate([rng.integers(0, 2, 6)] * 2)
        beta = np.concatenate([rng.random(6)] * 2)
        bank = contrastive.FeatureBank(z=z, pseudo_class=pc, beta=beta,
                                       source_ids=np.arange(12) % 6,
                                       degenerate=np.zeros(12, dtype=bool))
        base = contrastive.cdcl_loss(bank, CFG)
        perm = rng.permutation(12)
        permuted = contrastive.FeatureBank(z=z[perm], pseudo_class=pc[perm],
                                           beta=beta[perm], source_ids=(np.arange(12) % 6)[perm],
                                           degenerate=np.zeros(12, dtype=bool))
        assert abs(contrastive.cdcl_loss(permuted, CFG) - base) < 1e-10

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
        loss = contrastive.cdcl_loss(bank, hot)
        bnorm = contrastive.normalize_beta(bank.beta)
        pos = contrastive.positive_sets(bank.pseudo_class)
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
            logp, pos, _, counts, valid = contrastive._loss_pieces(bank, CFG)
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
        logp, pos, _, counts, valid = contrastive._loss_pieces(bank, CFG)
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
        bank = contrastive.build_bank(params, weak, strong, pc, beta)
        bank.validate()
        assert bank.rows == 10

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
        _, grad = contrastive.cdcl_grad(params, weak, strong, pc, beta, CFG)

        def value(flat):
            bank = contrastive.build_bank(net.ModelParams(params.arch, flat),
                                          weak, strong, pc, beta)
            return contrastive.cdcl_loss(bank, CFG)

        fd = fd_gradient(value, params.flat)
        assert max_rel_error(fd, grad) < 1e-5

    def test_grad_loss_value_matches_bank_loss(self):
        params = self.params(3)
        rng = np.random.default_rng(3)
        weak = rng.standard_normal((6, 3))
        strong = rng.standard_normal((6, 3))
        pc = rng.integers(0, 2, 6)
        beta = rng.random(6)
        loss_g, _ = contrastive.cdcl_grad(params, weak, strong, pc, beta, CFG)
        bank = contrastive.build_bank(params, weak, strong, pc, beta)
        assert loss_g == pytest.approx(contrastive.cdcl_loss(bank, CFG), abs=1e-12)

    def test_purity_counters_agree(self):
        rng = np.random.default_rng(4)
        pc2 = np.concatenate([rng.integers(0, 3, 7)] * 2)
        bnorm2 = np.concatenate([rng.random(7)] * 2)
        y2 = np.concatenate([rng.integers(0, 3, 7)] * 2)
        positives = contrastive.positive_sets(pc2)
        weights = contrastive.consensus_weights(bnorm2, positives)
        slow = pair_match_counts(positives, weights, y2)
        fast = contrastive.pair_match_counts_fast(pc2, bnorm2, y2)
        assert np.allclose(slow, fast)
