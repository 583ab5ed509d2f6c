"""Network substrate: forward against a straight-line reimplementation,
backward against central finite differences, optimizer closed forms."""

import numpy as np
import pytest

from noisylab import contrastive, metrics, net
from noisylab.oracles import fd_gradient, l2_normalize, max_rel_error, per_sample_grads
from noisylab.trainer import TrainConfig, lr_at


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


class TestBuffers:
    """Forward and backward in reused buffers give the bits of fresh arrays."""

    # batch sizes of the benchmark workloads and their last partial batches,
    # each block (B, 2B, 3B rows) of a step, and shrinking between them
    ROWS = (1, 8, 32, 40, 96, 168, 256, 512, 768)

    def test_equal_to_fresh_arrays_through_one_shrinking_and_growing_set(self):
        p = small_params(21, arch=net.Architecture(16, 64, 4, 16))
        rng = np.random.default_rng(21)
        buffers = net.Buffers()  # one workspace, as a run keeps
        for n in self.ROWS + self.ROWS[::-1]:
            x = rng.standard_normal((n, 16))
            fresh = net.forward_batch(p, x)
            reused = net.forward_batch(p, x, buffers=buffers)
            assert np.array_equal(fresh.logits, reused.logits), n
            assert np.array_equal(fresh.emb, reused.emb), n
            for a, b in zip(fresh.cache, reused.cache):
                assert np.array_equal(a, b), n
            dlogits = rng.standard_normal((n, 4))
            for demb in (None, rng.standard_normal((n, 16))):
                assert np.array_equal(net.backward_batch(p, fresh.cache, dlogits, demb),
                                      net.backward_batch(p, reused.cache, dlogits, demb,
                                                         buffers)), n

    def test_extended_forward_equals_one_forward_over_all_rows(self):
        # the Mixup rows of a step are forwarded after its shared forward
        p = small_params(22, arch=net.Architecture(16, 64, 4, 16))
        rng = np.random.default_rng(22)
        buffers = net.Buffers()
        for head, tail in ((64, 32), (512, 256), (32, 16)):
            x = rng.standard_normal((head + tail, 16))
            first = net.forward_batch(p, x[:head], buffers=buffers, total_rows=head + tail)
            first_logits = first.logits.copy()
            both = net.forward_batch(p, x[head:], buffers=buffers, row0=head,
                                     total_rows=head + tail)
            fresh = net.forward_batch(p, x)
            assert np.array_equal(both.logits, fresh.logits)
            assert np.array_equal(both.logits[:head], first_logits)
            for a, b in zip(both.cache, fresh.cache):
                assert np.array_equal(a, b)

    def test_gradient_views_built_once_until_the_storage_grows(self):
        arch = net.Architecture(16, 64, 4, 16)
        stack = net.stack_params([small_params(27, arch=arch), small_params(28, arch=arch)])
        rng = np.random.default_rng(27)
        buffers = net.Buffers()
        held = None
        for lead_params in (stack, stack, net.stack_params([stack[0], stack[1], stack[0]])):
            lead = lead_params.flat.shape[:-1]
            x = rng.standard_normal((9, 16))
            out = net.forward_batch(lead_params, x)
            dlogits = rng.standard_normal(lead + (9, 4))
            grad = net.backward_batch(lead_params, out.cache, dlogits, buffers=buffers)
            assert np.array_equal(grad, net.backward_batch(lead_params, out.cache, dlogits))
            entry = buffers.grad(arch, lead)
            assert entry[0] is grad
            for name, view in entry[1].items():
                assert np.shares_memory(view, grad)
                assert np.array_equal(view, getattr(net.ModelParams(arch, grad.copy()), name))
            if lead == (2,):
                # the same array and dict on every step of one shape
                held = held or entry
                assert entry[0] is held[0] and entry[1] is held[1]
        # the three-net gradient grew the storage: the two-net entry is rebuilt
        assert buffers.grad(arch, (2,))[1] is not held[1]

    def test_per_sample_dots_leave_the_workspace_gradient(self):
        # the meta step's held-out gradient lives in the workspace's grad
        # role; per_sample_grad_dots borrows only dh1 and dh2, so it reads
        # that gradient intact and leaves it so
        arch = net.Architecture(16, 64, 4, 16)
        stack = net.stack_params([small_params(29, arch=arch), small_params(30, arch=arch)])
        rng = np.random.default_rng(29)
        buffers = net.Buffers()
        meta_x, batch_x = rng.standard_normal((7, 16)), rng.standard_normal((9, 16))
        held_out = net.weighted_ce_loss_grad(stack, meta_x, np.eye(4)[rng.integers(0, 4, 7)],
                                             np.ones(7), buffers)[1]
        assert held_out is buffers.grad(arch, (2,))[0]
        out = net.forward_batch(stack, batch_x)
        given = np.eye(4)[rng.integers(0, 4, 9)]
        pseudo = np.eye(4)[rng.integers(0, 4, (2, 9))]
        kept = held_out.copy()
        fresh = net.per_sample_grad_dots(stack, out, given, pseudo, kept)
        reused = net.per_sample_grad_dots(stack, out, given, pseudo, held_out, buffers)
        for a, b in zip(fresh, reused):
            assert np.array_equal(a, b)
        assert np.array_equal(held_out, kept)

    def test_row0_needs_buffers(self):
        with pytest.raises(ValueError):
            net.forward_batch(small_params(), np.zeros((2, 3)), row0=2)

    def test_two_nets_caches_survive_each_others_forward(self):
        arch = net.Architecture(16, 64, 4, 16)
        p1, p2 = small_params(23, arch=arch), small_params(24, arch=arch)
        x = np.random.default_rng(23).standard_normal((96, 16))
        b1, b2 = net.Buffers(), net.Buffers()
        out1 = net.forward_batch(p1, x, buffers=b1)
        out2 = net.forward_batch(p2, x, buffers=b2)
        for out, p in ((out1, p1), (out2, p2)):
            fresh = net.forward_batch(p, x)
            assert np.array_equal(out.logits, fresh.logits)
            for a, b in zip(out.cache, fresh.cache):
                assert np.array_equal(a, b)

    def test_chunked_evaluation_equals_one_block(self):
        """Chunks of two or more rows give each row the bits of one unchunked
        forward; a 1-row tail chunk runs as matrix-vector products, whose
        last bits may differ."""
        arch = net.Architecture(16, 64, 4, 16)
        params = [small_params(25, arch=arch), small_params(26, arch=arch)]
        stack = net.stack_params(params)
        rng = np.random.default_rng(25)
        rows = metrics.EVAL_ROWS
        for n in (3 * rows + 77, rows // 2 + 1, rows - 1, rows, rows + 1, rows + 2, 2 * rows + 1):
            x = rng.standard_normal((n, 16))
            one_block = np.stack([net.softmax(net.forward_batch(p, x).logits) for p in params])
            got = np.empty((2, n, 4))
            for chunk, probs, _ in metrics.ensemble_chunks(stack, x, net.Buffers()):
                got[:, chunk] = probs
            msp = metrics.msp_scores_ensemble(stack, x, net.Buffers())
            one_msp = one_block.mean(axis=0).max(axis=1)
            exact = n - 1 if n % rows == 1 else n
            assert np.array_equal(got[:, :exact], one_block[:, :exact]), n
            assert np.array_equal(msp[:exact], one_msp[:exact]), n
            assert np.allclose(got, one_block, rtol=1e-12, atol=0.0), n
            assert np.allclose(msp, one_msp, rtol=1e-12, atol=0.0), n


class TestStacked:
    """Each net's slice of a stacked pass has the bits of the single-net call
    with that net's parameters (co-training steps its two nets as a stack)."""

    # batch sizes of the benchmark workloads, their blocks (B, 2B, 3B rows)
    # and partial last batches
    ROWS = (1, 2, 8, 31, 32, 40, 64, 96, 168, 255, 256, 512, 768)
    ARCH = net.Architecture(16, 64, 4, 16)

    def nets(self, seed):
        singles = [small_params(seed + k, arch=self.ARCH) for k in range(2)]
        return singles, net.stack_params(singles)

    @staticmethod
    def assert_forward_equal(stacked, k, one):
        assert np.array_equal(stacked.logits[k], one.logits)
        assert np.array_equal(stacked.emb[k], one.emb)
        for a, b in zip(stacked.cache, one.cache):
            assert np.array_equal(a[k], b)

    def test_slices_are_the_nets(self):
        singles, stack = self.nets(30)
        for k, p in enumerate(singles):
            assert np.array_equal(stack[k].flat, p.flat)
            for name in ("w1", "b1", "w2", "b2", "wc", "bc", "wp", "bp"):
                assert np.array_equal(getattr(stack, name)[k], getattr(p, name))

    def test_forward_and_backward(self):
        singles, stack = self.nets(31)
        rng = np.random.default_rng(31)
        buffers = net.Buffers()  # one workspace, as a run keeps
        for n in self.ROWS + self.ROWS[::-1]:
            x = rng.standard_normal((n, 16))
            dlogits = rng.standard_normal((2, n, 4))
            demb = rng.standard_normal((2, n, 16))
            fresh = net.forward_batch(stack, x)
            reused = net.forward_batch(stack, x, buffers=buffers)
            ones = [net.forward_batch(p, x) for p in singles]
            for k, one in enumerate(ones):
                self.assert_forward_equal(fresh, k, one)
                self.assert_forward_equal(reused, k, one)
            for d in (None, demb):
                grads = (net.backward_batch(stack, fresh.cache, dlogits, d),
                         net.backward_batch(stack, reused.cache, dlogits, d, buffers))
                for k, (p, one) in enumerate(zip(singles, ones)):
                    ref = net.backward_batch(p, one.cache, dlogits[k],
                                             None if d is None else d[k])
                    for g in grads:
                        assert np.array_equal(g[k], ref), (n, d is None)

    def test_per_net_rows_extend_a_presized_shared_forward(self):
        # the Mixup rows differ per net and go after the shared rows, in
        # arrays sized for both blocks before the shared forward
        singles, stack = self.nets(32)
        rng = np.random.default_rng(32)
        buffers = net.Buffers()
        for head, tail in ((1, 1), (64, 32), (96, 32), (512, 256), (80, 40), (32, 16)):
            shared = rng.standard_normal((head, 16))
            mix = rng.standard_normal((2, tail, 16))
            first = net.forward_batch(stack, shared, buffers=buffers, total_rows=head + tail)
            first_logits = first.logits.copy()
            both = net.forward_batch(stack, mix, buffers=buffers, row0=head,
                                     total_rows=head + tail)
            assert np.array_equal(both.logits[:, :head], first_logits)
            for k, p in enumerate(singles):
                single_buffers = net.Buffers()
                net.forward_batch(p, shared, buffers=single_buffers, total_rows=head + tail)
                self.assert_forward_equal(both, k, net.forward_batch(
                    p, mix[k], buffers=single_buffers, row0=head, total_rows=head + tail))

    def test_unreserved_extension_raises(self):
        # the earlier forward's arrays hold each net's rows as one block of
        # its own row count, which a longer view cannot line up with
        _, stack = self.nets(35)
        rng = np.random.default_rng(35)
        for first_total in (None, 8):
            buffers = net.Buffers()
            net.forward_batch(stack, rng.standard_normal((6, 16)), buffers=buffers,
                              total_rows=first_total)
            with pytest.raises(ValueError, match="to reserve"):
                net.forward_batch(stack, rng.standard_normal((2, 4, 16)), buffers=buffers,
                                  row0=6)
            with pytest.raises(ValueError, match="to reserve"):
                net.forward_batch(stack, rng.standard_normal((2, 4, 16)), buffers=buffers,
                                  row0=6, total_rows=10)

    def test_total_rows_must_cover_the_rows_written(self):
        _, stack = self.nets(33)
        with pytest.raises(ValueError):
            net.forward_batch(stack, np.zeros((4, 16)), buffers=net.Buffers(), total_rows=3)

    def test_heads_per_sample_dots_and_sgd(self):
        singles, stack = self.nets(34)
        rng = np.random.default_rng(34)
        n_params = self.ARCH.n_params
        buffers = net.Buffers()
        velocity = np.zeros_like(stack.flat)
        velocities = [np.zeros_like(p.flat) for p in singles]
        for n in self.ROWS:
            logits = rng.standard_normal((2, n, 4))
            targets = rng.random((2, n, 4))
            weights = rng.random((2, n))
            losses, dlogits = net.weighted_ce_head(logits, targets, weights)
            x = rng.standard_normal((n, 16))
            given = one_hot(rng.integers(0, 4, n), 4)
            pseudo = one_hot(rng.integers(0, 4, (2, n)), 4)
            vec = rng.standard_normal((2, n_params))
            dots = net.per_sample_grad_dots(stack, net.forward_batch(stack, x), given, pseudo,
                                            vec, buffers)
            grad = rng.standard_normal((2, n_params))
            net.sgd_step(stack, grad, velocity, 0.05, 0.9, 5e-4, buffers)
            for k, p in enumerate(singles):
                loss, dl = net.weighted_ce_head(logits[k], targets[k], weights[k])
                assert losses[k] == loss and np.array_equal(dlogits[k], dl)
                ref = net.per_sample_grad_dots(p, net.forward_batch(p, x), given, pseudo[k],
                                               vec[k])
                for d, r in zip(dots, ref):
                    assert np.array_equal(d[k], r), n
                net.sgd_step(p, grad[k], velocities[k], 0.05, 0.9, 5e-4, buffers)
                assert np.array_equal(stack.flat[k], p.flat)
                assert np.array_equal(velocity[k], velocities[k])

    def test_chunked_evaluation(self):
        singles, stack = self.nets(35)
        rng = np.random.default_rng(35)
        buffers = net.Buffers()
        for n in (1, 255, 256, 257, 768, 2000):
            x = rng.standard_normal((n, 16))
            starts = range(0, n, metrics.EVAL_ROWS)
            chunks = list(metrics.ensemble_chunks(stack, x, buffers))
            assert len(chunks) == len(starts), n
            for start, (rows, probs, ens) in zip(starts, chunks):
                assert rows == slice(start, start + metrics.EVAL_ROWS), n
                for k, p in enumerate(singles):
                    one = net.softmax(net.forward_batch(p, x[rows]).logits)
                    assert np.array_equal(probs[k], one), n
                assert np.array_equal(ens, probs.mean(axis=0)), n


class TestCeLoss:
    """The cross-entropy value of weighted_ce_head on one row at weight one."""

    @staticmethod
    def ce(logits, target):
        return net.weighted_ce_head(np.atleast_2d(logits), np.atleast_2d(target),
                                    np.ones(1))[0]

    def test_uniform_logits_log_c(self):
        logits = np.full(10, 1.7)
        target = np.zeros(10)
        target[3] = 1.0
        assert abs(self.ce(logits, target) - np.log(10)) < 1e-12
        soft = np.full(10, 0.1)
        assert abs(self.ce(logits, soft) - np.log(10)) < 1e-12

    def test_large_margin_limit(self):
        logits = np.array([40.0, 0.0])
        assert self.ce(logits, np.array([1.0, 0.0])) < 1e-12

    def test_matches_naive_at_moderate_logits(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal(6)
        target = rng.random(6)
        target /= target.sum()
        naive = -np.sum(target * np.log(np.exp(logits) / np.exp(logits).sum()))
        assert abs(self.ce(logits, target) - naive) < 1e-10

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            logits = 3.0 * rng.standard_normal(4)
            target = rng.random(4)
            target /= target.sum()
            assert self.ce(logits, target) >= 0.0


class TestGradBatch:
    """The parameter gradient of weighted_ce_loss_grad."""

    def test_zero_weights_zero_gradient(self):
        p = small_params(1)
        x = np.random.default_rng(1).standard_normal((4, 3))
        g = net.weighted_ce_loss_grad(p, x, one_hot([0, 1, 0, 1], 2), np.zeros(4))[1]
        assert np.all(g == 0.0)

    def test_linear_in_weights(self):
        p = small_params(2)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 3))
        t = one_hot(rng.integers(0, 2, 5), 2)
        w1 = rng.random(5)
        w2 = rng.random(5)
        ga = net.weighted_ce_loss_grad(p, x, t, w1)[1]
        gb = net.weighted_ce_loss_grad(p, x, t, w2)[1]
        gsum = net.weighted_ce_loss_grad(p, x, t, w1 + w2)[1]
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
        ref = net.weighted_ce_loss_grad(p, x, given, np.ones(1))[1]
        assert max_rel_error(g1[0], ref) < 1e-12

    def test_sum_decomposition(self):
        p = small_params(5)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 3))
        given = one_hot(rng.integers(0, 2, 6), 2)
        pseudo = one_hot(rng.integers(0, 2, 6), 2)
        g1, g2 = per_sample_grads(p, x, given, pseudo)
        ref = net.weighted_ce_loss_grad(p, x, given, np.ones(6))[1]
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
            return net.weighted_ce_head(logits, given[i:i + 1], np.ones(1))[0] / 3.0

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
        d1, d2 = net.per_sample_grad_dots(p, net.forward_batch(p, x), given, pseudo, vec)
        assert max_rel_error(g1 @ vec, d1) < 1e-10
        assert max_rel_error(g2 @ vec, d2) < 1e-10


class TestSgd:
    # sgd_step updates the parameters and the velocity in place, so each
    # test keeps copies of what it compares
    def test_zero_grad_identity(self):
        p = small_params(1)
        before = p.flat.copy()
        zero = np.zeros(p.arch.n_params)
        net.sgd_step(p, zero, zero.copy(), 0.1, 0.0, 0.0, net.Buffers())
        assert np.array_equal(p.flat, before)

    def test_plain_gradient_descent_reduction(self):
        p = small_params(2)
        before = p.flat.copy()
        g = np.random.default_rng(0).standard_normal(p.arch.n_params)
        net.sgd_step(p, g, np.zeros_like(g), 0.05, 0.0, 0.0, net.Buffers())
        assert np.allclose(p.flat, before - 0.05 * g)

    def test_momentum_two_step_recurrence(self):
        # constant gradient: v1 = g, v2 = (1 + mu) g, so the second
        # displacement is lr * 1.9 * g at mu = 0.9
        p = small_params(3)
        g = np.random.default_rng(1).standard_normal(p.arch.n_params)
        velocity, buffers = np.zeros_like(g), net.Buffers()
        net.sgd_step(p, g, velocity, 0.01, 0.9, 0.0, buffers)
        after_one = p.flat.copy()
        net.sgd_step(p, g, velocity, 0.01, 0.9, 0.0, buffers)
        assert np.allclose(after_one - p.flat, 0.01 * 1.9 * g, atol=1e-15)

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["one_net", "stack"])
    def test_in_place_step_equals_the_fresh_expressions(self, lead):
        # velocity <- momentum * v + g + wd * theta, then theta <- theta -
        # lr * v, computed fresh, bit for bit over several steps; the
        # parameters stay in the same array, and the named views follow it
        arch = net.Architecture(dim=5, hidden=7, num_classes=3, proj=4)
        rng = np.random.default_rng(4)
        p = net.ModelParams(arch, 0.4 * rng.standard_normal(lead + (arch.n_params,)))
        flat, w1 = p.flat, p.w1
        theta, v_ref = p.flat.copy(), np.zeros(lead + (arch.n_params,))
        velocity, buffers = v_ref.copy(), net.Buffers()
        for lr, momentum, wd in ((0.05, 0.9, 5e-4), (0.05, 0.9, 5e-4), (0.005, 0.5, 1e-3),
                                 (0.1, 0.0, 0.0)):
            g = rng.standard_normal(lead + (arch.n_params,))
            v_ref = momentum * v_ref + g + wd * theta
            theta = theta - lr * v_ref
            net.sgd_step(p, g, velocity, lr, momentum, wd, buffers)
            assert np.array_equal(velocity, v_ref)
            assert np.array_equal(p.flat, theta)
        assert p.flat is flat
        assert np.array_equal(w1, net.ModelParams(arch, theta).w1)

    def test_non_finite_update_raises(self):
        # finite inputs whose update overflows
        p = small_params(5)
        g = np.full(p.arch.n_params, 1e308)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="non-finite parameter entries"):
                net.sgd_step(p, g, np.zeros_like(g), 10.0, 0.0, 0.0, net.Buffers())

    def test_step_decay_schedule(self):
        cfg = TrainConfig(epochs=30, lr=0.05, decay_epochs=(10, 20), decay_factor=0.1)
        assert lr_at(0, cfg) == 0.05
        assert lr_at(9, cfg) == 0.05
        assert abs(lr_at(10, cfg) - 0.005) < 1e-15
        assert abs(lr_at(25, cfg) - 0.0005) < 1e-15


class TestL2Normalize:
    def test_unit_vector_fixed(self):
        v = np.array([1.0, 0.0, 0.0])
        assert np.allclose(l2_normalize(v), v)

    def test_three_four_five(self):
        assert np.allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_zero_vector_flagged(self):
        # zero rows map to zero; the contrastive head flags them degenerate
        # and gives them a zero gradient
        assert np.all(l2_normalize(np.zeros(4)) == 0.0)
        raw = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        _, draw, _ = contrastive.cdcl_head(raw, np.array([0]), np.array([0.5]),
                                           contrastive.CdclConfig())
        assert np.all(draw[0] == 0.0) and np.all(np.isfinite(draw))


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
