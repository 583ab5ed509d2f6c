"""Network substrate: forward against a straight-line reimplementation,
backward against central finite differences, optimizer closed forms."""

import numpy as np
import pytest

from noisylab import net
from noisylab.oracles import fd_gradient, max_rel_error, per_sample_grads


def small_params(seed=0, arch=None, scale=0.4):
    arch = arch or net.Architecture(dim=3, hidden=4, num_classes=2, proj=3)
    rng = np.random.default_rng(seed)
    return net.ModelParams(arch, scale * rng.standard_normal(arch.n_params))


def one_hot(labels, c):
    return np.eye(c)[np.asarray(labels)]


def naive_forward(params, x):
    """Independent straight-line recomputation of the forward pass."""
    h1 = np.maximum(x @ params.w1 + params.b1, 0.0)
    h2 = np.maximum(h1 @ params.w2 + params.b2, 0.0)
    return h2 @ params.wc + params.bc, h2 @ params.wp + params.bp


class TestInit:
    def test_same_seed_identical(self):
        arch = net.Architecture(5, 8, 3, 4)
        a = net.init_params(arch, 42)
        b = net.init_params(arch, 42)
        assert np.array_equal(a.flat, b.flat)

    def test_biases_zero(self):
        p = net.init_params(net.Architecture(5, 8, 3, 4), 1)
        for name in ("b1", "b2", "bc", "bp"):
            assert np.all(getattr(p, name) == 0.0)

    def test_fan_in_scale(self):
        # expected std is 1/sqrt(fan_in); check the big hidden matrix
        p = net.init_params(net.Architecture(4, 256, 3, 4), 3)
        observed = p.w2.std()
        assert abs(observed - 1.0 / 16.0) <= 0.1 / 16.0


class TestForward:
    def test_zero_params_uniform_softmax(self):
        arch = net.Architecture(3, 4, 5, 2)
        p = net.ModelParams(arch, np.zeros(arch.n_params))
        out = net.forward_batch(p, np.array([[1.0, -2.0, 0.5]]))
        assert np.all(out.logits == 0.0)
        assert np.allclose(net.softmax(out.logits), 0.2)

    def test_identity_trunk_fixture(self):
        # trunk wired to the identity: logits are the head applied to relu(x)
        arch = net.Architecture(3, 3, 2, 2)
        views = {"w1": np.eye(3), "b1": np.zeros(3), "w2": np.eye(3), "b2": np.zeros(3)}
        rng = np.random.default_rng(5)
        views["wc"] = rng.standard_normal((3, 2))
        views["bc"] = rng.standard_normal(2)
        views["wp"] = rng.standard_normal((3, 2))
        views["bp"] = rng.standard_normal(2)
        flat = np.concatenate([views[name].ravel() for name, _ in arch.param_shapes()])
        p = net.ModelParams(arch, flat)
        x = np.array([[0.7, -1.3, 2.1]])
        out = net.forward_batch(p, x)
        expected = np.maximum(x, 0.0) @ views["wc"] + views["bc"]
        assert np.allclose(out.logits, expected, atol=1e-14)

    def test_matches_naive_reimplementation(self):
        p = small_params(9)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 3))
        out = net.forward_batch(p, x)
        logits, emb = naive_forward(p, x)
        assert max_rel_error(out.logits, logits) < 1e-12
        assert max_rel_error(out.emb, emb) < 1e-12

    def test_dimension_mismatch_rejected(self):
        p = small_params()
        with pytest.raises(ValueError):
            net.forward_batch(p, np.zeros((2, 5)))

    def test_eval_mode_is_noop(self):
        p = small_params(11)
        x = np.random.default_rng(2).standard_normal((4, 3))
        a = net.forward_batch(p, x, eval_mode=False)
        b = net.forward_batch(p, x, eval_mode=True)
        assert np.array_equal(a.logits, b.logits)


class TestCeLoss:
    def test_uniform_logits_log_c(self):
        logits = np.full(10, 1.7)
        target = np.zeros(10)
        target[3] = 1.0
        assert abs(net.ce_loss(logits, target) - np.log(10)) < 1e-12
        soft = np.full(10, 0.1)
        assert abs(net.ce_loss(logits, soft) - np.log(10)) < 1e-12

    def test_large_margin_limit(self):
        logits = np.array([40.0, 0.0])
        assert net.ce_loss(logits, np.array([1.0, 0.0])) < 1e-12

    def test_matches_naive_at_moderate_logits(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal(6)
        target = rng.random(6)
        target /= target.sum()
        naive = -np.sum(target * np.log(np.exp(logits) / np.exp(logits).sum()))
        assert abs(net.ce_loss(logits, target) - naive) < 1e-10

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            net.ce_loss(np.zeros(3), np.array([0.5, 0.2, 0.2]))

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            logits = 3.0 * rng.standard_normal(4)
            target = rng.random(4)
            target /= target.sum()
            assert net.ce_loss(logits, target) >= 0.0


class TestGradBatch:
    def test_zero_weights_zero_gradient(self):
        p = small_params(1)
        x = np.random.default_rng(1).standard_normal((4, 3))
        g = net.grad_batch(p, x, one_hot([0, 1, 0, 1], 2), np.zeros(4))
        assert np.all(g == 0.0)

    def test_linear_in_weights(self):
        p = small_params(2)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 3))
        t = one_hot(rng.integers(0, 2, 5), 2)
        w1 = rng.random(5)
        w2 = rng.random(5)
        ga = net.grad_batch(p, x, t, w1)
        gb = net.grad_batch(p, x, t, w2)
        gsum = net.grad_batch(p, x, t, w1 + w2)
        assert max_rel_error(ga + gb, gsum) < 1e-10

    def test_matches_finite_differences(self):
        p = small_params(7)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 3))
        t = one_hot(rng.integers(0, 2, 4), 2)
        w = rng.random(4) + 0.5
        loss, grad = net.weighted_ce_loss_grad(p, x, t, w)
        fd = fd_gradient(lambda f: net.weighted_ce_loss_grad(
            net.ModelParams(p.arch, f), x, t, w)[0], p.flat)
        assert max_rel_error(fd, grad) < 1e-5


class TestPerSampleGrads:
    def test_single_sample_matches_grad_batch(self):
        p = small_params(4)
        x = np.random.default_rng(4).standard_normal((1, 3))
        given = one_hot([1], 2)
        pseudo = one_hot([0], 2)
        g1, g2 = per_sample_grads(p, x, given, pseudo)
        ref = net.grad_batch(p, x, given, np.ones(1))
        assert max_rel_error(g1[0], ref) < 1e-12

    def test_sum_decomposition(self):
        p = small_params(5)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 3))
        given = one_hot(rng.integers(0, 2, 6), 2)
        pseudo = one_hot(rng.integers(0, 2, 6), 2)
        g1, g2 = per_sample_grads(p, x, given, pseudo)
        ref = net.grad_batch(p, x, given, np.ones(6))
        assert max_rel_error(g1.sum(axis=0), ref) < 1e-10

    def test_per_sample_finite_differences(self):
        p = small_params(6)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 3))
        given = one_hot(rng.integers(0, 2, 3), 2)
        pseudo = one_hot(rng.integers(0, 2, 3), 2)
        g1, _ = per_sample_grads(p, x, given, pseudo)
        i = 1

        def scaled_loss(flat):
            q = net.ModelParams(p.arch, flat)
            logits = net.forward_batch(q, x[i:i + 1]).logits
            return net.ce_loss(logits[0], given[i]) / 3.0

        fd = fd_gradient(scaled_loss, p.flat)
        assert max_rel_error(fd, g1[i]) < 1e-5

    def test_dot_shortcut_matches_materialized(self):
        p = small_params(12)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((5, 3))
        given = one_hot(rng.integers(0, 2, 5), 2)
        pseudo = one_hot(rng.integers(0, 2, 5), 2)
        vec = rng.standard_normal(p.arch.n_params)
        g1, g2 = per_sample_grads(p, x, given, pseudo)
        d1, d2 = net.per_sample_grad_dots(p, x, given, pseudo, vec)
        assert max_rel_error(g1 @ vec, d1) < 1e-10
        assert max_rel_error(g2 @ vec, d2) < 1e-10


class TestSgd:
    def test_zero_grad_identity(self):
        p = small_params(1)
        sched = net.Schedule(base_lr=0.1, momentum=0.0, weight_decay=0.0)
        state = net.init_opt_state(p.arch, sched)
        q, _ = net.sgd_step(p, np.zeros(p.arch.n_params), state)
        assert np.array_equal(q.flat, p.flat)

    def test_plain_gradient_descent_reduction(self):
        p = small_params(2)
        g = np.random.default_rng(0).standard_normal(p.arch.n_params)
        sched = net.Schedule(base_lr=0.05, momentum=0.0, weight_decay=0.0)
        q, _ = net.sgd_step(p, g, net.init_opt_state(p.arch, sched))
        assert np.allclose(q.flat, p.flat - 0.05 * g)

    def test_momentum_two_step_recurrence(self):
        # constant gradient: v1 = g, v2 = (1 + mu) g, so the second
        # displacement is lr * 1.9 * g at mu = 0.9
        p = small_params(3)
        g = np.random.default_rng(1).standard_normal(p.arch.n_params)
        sched = net.Schedule(base_lr=0.01, momentum=0.9, weight_decay=0.0)
        q1, s1 = net.sgd_step(p, g, net.init_opt_state(p.arch, sched))
        q2, _ = net.sgd_step(q1, g, s1)
        assert np.allclose(q1.flat - q2.flat, 0.01 * 1.9 * g, atol=1e-15)

    def test_step_decay_schedule(self):
        sched = net.Schedule(base_lr=0.05, decay_epochs=(10, 20), decay_factor=0.1)
        assert sched.lr_at(0) == 0.05
        assert sched.lr_at(9) == 0.05
        assert abs(sched.lr_at(10) - 0.005) < 1e-15
        assert abs(sched.lr_at(25) - 0.0005) < 1e-15


class TestL2Normalize:
    def test_unit_vector_fixed(self):
        v = np.array([1.0, 0.0, 0.0])
        assert np.allclose(net.l2_normalize(v), v)

    def test_three_four_five(self):
        assert np.allclose(net.l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_zero_vector_flagged(self):
        out, flag = net.l2_normalize(np.zeros(4), with_flag=True)
        assert np.all(out == 0.0)
        assert bool(flag)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        p = small_params(33, arch=net.Architecture(5, 7, 3, 4))
        path = tmp_path / "model.bin"
        net.save_checkpoint(p, path)
        q = net.load_checkpoint(path)
        assert q.arch == p.arch
        assert np.array_equal(q.flat, p.flat)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError):
            net.load_checkpoint(path)


def test_params_read_only():
    p = small_params(0)
    with pytest.raises(AttributeError):
        p.flat = np.zeros(p.arch.n_params)
