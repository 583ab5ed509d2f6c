"""Bilevel reliability estimation: exact path vs the literal virtual-update
oracle, clamp-and-normalize behavior, and the statistical separation check."""

import numpy as np
import pytest

from noisylab import data, net, reliability
from noisylab.oracles import max_rel_error, meta_gradients_fd
from noisylab.util import ConfigError

ETA = 0.1  # the inner learning rate of the virtual update


def fixture(seed, b=4, m=8):
    rng = np.random.default_rng(seed)
    arch = net.Architecture(dim=3, hidden=4, num_classes=2, proj=3)
    params = net.ModelParams(arch, 0.4 * rng.standard_normal(arch.n_params))
    batch_x = rng.standard_normal((b, 3))
    given = reliability.one_hot(rng.integers(0, 2, b), 2)
    pseudo = reliability.one_hot(rng.integers(0, 2, b), 2)
    meta = data.MetaSet(x=rng.standard_normal((m, 3)), y=rng.integers(0, 2, m),
                        ids=np.arange(m))
    return params, batch_x, given, pseudo, meta


class TestClosedForm:
    def test_zero_per_sample_gradient_gives_zero(self):
        # a sample whose target equals its own softmax has a zero gradient,
        # so its held-out sensitivity vanishes regardless of the meta set
        params, batch_x, given, pseudo, meta = fixture(0)
        probs = net.softmax(net.forward_batch(params, batch_x).logits)
        e1, _ = reliability.meta_gradients_closed(params, batch_x, probs, pseudo,
                                                  meta, ETA)
        assert np.all(np.abs(e1) < 1e-15)

    def test_zero_inner_rate_gives_zeros(self):
        params, batch_x, given, pseudo, meta = fixture(1)
        e1, e2 = reliability.meta_gradients_closed(params, batch_x, given, pseudo,
                                                   meta, 0.0)
        assert np.all(e1 == 0.0) and np.all(e2 == 0.0)

    def test_negative_inner_rate_rejected(self):
        params, batch_x, given, pseudo, meta = fixture(1)
        with pytest.raises(ConfigError, match="eta_inner"):
            reliability.meta_gradients_closed(params, batch_x, given, pseudo, meta, -0.1)

    def test_empty_meta_rejected(self):
        params, batch_x, given, pseudo, _ = fixture(2)
        empty = data.MetaSet(x=np.zeros((0, 3)), y=np.zeros(0, dtype=int),
                             ids=np.zeros(0, dtype=int))
        with pytest.raises(ConfigError):
            reliability.meta_gradients_closed(params, batch_x, given, pseudo,
                                              empty, ETA)

    def test_workspace_leaves_the_callers_forward(self):
        # with buffers, the held-out gradient and the per-sample temporaries
        # live in the backward's roles: the caller's forward of the batch in
        # the same buffers stays as it was, and the bits match the fresh path
        params, batch_x, given, pseudo, meta = fixture(4, b=6)
        buffers = net.Buffers()
        out = net.forward_batch(params, batch_x, buffers=buffers)
        held = [a.copy() for a in (out.logits, out.emb) + out.cache]
        with_buffers = reliability.meta_gradients_closed(
            params, batch_x, given, pseudo, meta, ETA, out=out, buffers=buffers)
        fresh = reliability.meta_gradients_closed(params, batch_x, given, pseudo, meta, ETA)
        for a, b in zip(with_buffers, fresh):
            assert np.array_equal(a, b)
        for a, b in zip((out.logits, out.emb) + out.cache, held):
            assert np.array_equal(a, b)

    def test_matches_fd_oracle_on_logistic_fixture(self):
        params, batch_x, given, pseudo, meta = fixture(3)
        closed = reliability.meta_gradients_closed(params, batch_x, given, pseudo, meta, ETA)
        fd = meta_gradients_fd(params, batch_x, given, pseudo, meta, ETA)
        assert max_rel_error(closed[0], fd[0], zero_floor=1e-10) < 1e-3
        assert max_rel_error(closed[1], fd[1], zero_floor=1e-10) < 1e-3


class TestFdOracle:
    def test_zero_inner_rate_gives_zeros(self):
        params, batch_x, given, pseudo, meta = fixture(4)
        e1, e2 = meta_gradients_fd(params, batch_x, given, pseudo, meta, 0.0)
        assert np.all(e1 == 0.0) and np.all(e2 == 0.0)

    def test_meta_label_flip_antisymmetry(self):
        # zero parameters, two classes: logits are the class biases for every
        # input, and flipping every meta label mirrors the held-out loss, so
        # the probe estimates flip sign exactly
        arch = net.Architecture(dim=3, hidden=4, num_classes=2, proj=3)
        params = net.ModelParams(arch, np.zeros(arch.n_params))
        rng = np.random.default_rng(5)
        batch_x = rng.standard_normal((4, 3))
        given = reliability.one_hot(rng.integers(0, 2, 4), 2)
        pseudo = reliability.one_hot(rng.integers(0, 2, 4), 2)
        meta0 = data.MetaSet(x=rng.standard_normal((6, 3)),
                             y=np.zeros(6, dtype=int), ids=np.arange(6))
        meta1 = data.MetaSet(x=meta0.x, y=np.ones(6, dtype=int), ids=meta0.ids)
        a1, a2 = meta_gradients_fd(params, batch_x, given, pseudo, meta0, ETA)
        b1, b2 = meta_gradients_fd(params, batch_x, given, pseudo, meta1, ETA)
        assert np.allclose(a1, -b1, atol=1e-9)
        assert np.allclose(a2, -b2, atol=1e-9)

    def test_agreement_many_seeds(self):
        worst = 0.0
        for seed in range(30):
            params, batch_x, given, pseudo, meta = fixture(100 + seed)
            closed = reliability.meta_gradients_closed(params, batch_x, given,
                                                       pseudo, meta, ETA)
            fd = meta_gradients_fd(params, batch_x, given, pseudo, meta, ETA)
            worst = max(worst,
                        max_rel_error(closed[0], fd[0], zero_floor=1e-10),
                        max_rel_error(closed[1], fd[1], zero_floor=1e-10))
        assert worst < 1e-3


class TestDisentangle:
    def test_all_harmful_gives_zeros(self):
        rb = reliability.disentangle(np.array([0.5, 1.0]), np.array([2.0, 0.1]))
        assert np.all(rb.alpha == 0.0) and np.all(rb.beta == 0.0)

    def test_two_sample_hand_case(self):
        # raw masses (1,0) and (0,1): each normalized weight is B/(S+XI) ~ 1
        rb = reliability.disentangle(np.array([-1.0, 0.0]), np.array([0.0, -1.0]))
        assert np.allclose(rb.alpha, [1.0, 0.0], atol=1e-9)
        assert np.allclose(rb.beta, [0.0, 1.0], atol=1e-9)
        assert abs(rb.alpha.sum() + rb.beta.sum() - 2.0) < 1e-9

    def test_uniform_raws_give_half(self):
        e = np.full(6, -0.37)
        rb = reliability.disentangle(e, e)
        assert np.allclose(rb.alpha, 0.5, atol=1e-9)
        assert np.allclose(rb.beta, 0.5, atol=1e-9)

    def test_mass_identity_and_nonnegativity_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            b = int(rng.integers(1, 40))
            e1 = rng.standard_normal(b) * 10.0 ** rng.integers(-8, 3)
            e2 = rng.standard_normal(b) * 10.0 ** rng.integers(-8, 3)
            rb = reliability.disentangle(e1, e2)
            assert np.all(rb.alpha >= 0.0) and np.all(rb.beta >= 0.0)
            total = rb.alpha.sum() + rb.beta.sum()
            assert total <= b + 1e-9
            assert rb.mass_identity_gap() < 1e-9

    def test_scale_equivariance(self):
        rng = np.random.default_rng(1)
        e1 = rng.standard_normal(8)
        e2 = rng.standard_normal(8)
        a = reliability.disentangle(e1, e2)
        b = reliability.disentangle(173.5 * e1, 173.5 * e2)
        assert max_rel_error(a.alpha, b.alpha, zero_floor=1e-12) < 1e-10
        assert max_rel_error(a.beta, b.beta, zero_floor=1e-12) < 1e-10

    def test_saturated_mass_when_raws_dominate_xi(self):
        rng = np.random.default_rng(2)
        rb = reliability.disentangle(-rng.random(16) - 0.5, -rng.random(16) - 0.5)
        assert abs(rb.alpha.sum() + rb.beta.sum() - 16.0) < 1e-6


class TestStacked:
    """disentangle and mass_identity_gap on a (2, B) stack: slice k equals
    the 1-D call on row k, bit for bit, and the gap is the larger one."""

    @staticmethod
    def check(e1, e2):
        stacked = reliability.disentangle(e1, e2)
        gaps = []
        for k in range(2):
            single = reliability.disentangle(e1[k], e2[k])
            for name in ("alpha", "beta", "mass"):
                assert np.array_equal(getattr(stacked, name)[k], getattr(single, name)), name
            gaps.append(single.mass_identity_gap())
        assert np.array_equal(stacked.mass_identity_gap(), max(gaps))
        return stacked

    def test_matches_per_net_calls(self):
        rng = np.random.default_rng(3)
        for b in range(1, 301):
            scale = 10.0 ** rng.integers(-8, 3, size=(2, 1))
            self.check(rng.standard_normal((2, b)) * scale,
                       rng.standard_normal((2, b)) * scale)

    def test_all_harmful_batch(self):
        rng = np.random.default_rng(4)
        rb = self.check(rng.random((2, 12)), rng.random((2, 12)))  # S = 0 for both nets
        assert np.all(rb.alpha == 0.0) and np.all(rb.beta == 0.0)

    def test_one_net_starved(self):
        # net 1's only helpful direction is far below XI; net 2 is healthy
        rng = np.random.default_rng(5)
        e1, e2 = rng.random((2, 10)), rng.random((2, 10))
        e1[0, 3] = -1e-14
        e1[1], e2[1] = -rng.random(10), -rng.random(10)
        rb = self.check(e1, e2)
        assert (rb.alpha[0] + rb.beta[0]).sum() < 1.0
        assert abs((rb.alpha[1] + rb.beta[1]).sum() - 10.0) < 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reliability.disentangle(np.zeros((2, 3)), np.zeros(3))


class TestSeparation:
    def test_clean_alpha_exceeds_noisy_alpha_after_warmup(self):
        # statistical check on a trained warm-up model at 40% symmetric noise
        from noisylab.data import default_augment_config
        from noisylab.trainer import TrainConfig, co_train

        pool = data.make_blobs(4, 150, 4, 0.5, seed=21)
        pool = data.inject_symmetric_noise(pool, 0.4, seed=22)
        train, meta = data.split_meta(pool, 16, seed=23)
        test = data.make_blobs(4, 50, 4, 0.5, seed=24)
        cfg = TrainConfig(epochs=6, batch_size=64, warmup_start=6, warmup_full=6,
                          decay_epochs=(), hidden=32, proj=8,
                          augment=default_augment_config(0.5),
                          net1_seed=31, net2_seed=32, loop_seed=33)
        report, params = co_train(train, meta, test, cfg)

        probs = net.softmax(net.forward_batch(params[1], train.x).logits)
        pseudo = reliability.one_hot(probs.argmax(axis=1), 4)
        given = reliability.one_hot(train.y_obs, 4)
        e1, e2 = reliability.meta_gradients_closed(params[0], train.x,
                                                   given, pseudo, meta, cfg.lr)
        rb = reliability.disentangle(e1, e2)
        clean = train.y_obs == train.y_true
        assert rb.alpha[clean].mean() > rb.alpha[~clean].mean()
