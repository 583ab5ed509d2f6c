"""Objective assembly (warm-up, refinement, filtering, the combined loss)
and the dual-network loop's structural properties."""

import dataclasses

import numpy as np
import pytest

from noisylab import data, mixup, net, reliability, trainer
from noisylab.data import AugmentConfig
from noisylab.oracles import (cdcl_grad, fd_gradient, fused_step_fd_error, head_grad,
                              max_rel_error)
from noisylab.util import ConfigError


def tiny_cfg(**overrides):
    base = dict(epochs=4, batch_size=32, warmup_start=1, warmup_full=2,
                decay_epochs=(3,), hidden=16, proj=6, lr=0.05,
                augment=AugmentConfig(0.02, 0.06, 0.1),
                net1_seed=41, net2_seed=42, loop_seed=43)
    base.update(overrides)
    return trainer.TrainConfig(**base)


def tiny_data(seed=0, n_per=40, noise=0.4, dim=3):
    pool = data.make_blobs(4, n_per, dim, 0.5, seed=500 + seed)
    pool = data.inject_symmetric_noise(pool, noise, seed=600 + seed)
    train, meta = data.split_meta(pool, 8, seed=700 + seed)
    test = data.make_blobs(4, 25, dim, 0.5, seed=800 + seed)
    return train, meta, test


class TestWarmup:
    CFG = tiny_cfg(epochs=30, warmup_start=10, warmup_full=20)

    def test_zero_before_start(self):
        assert trainer.warmup(0, self.CFG) == 0.0
        assert trainer.warmup(9, self.CFG) == 0.0

    def test_one_at_full(self):
        assert trainer.warmup(20, self.CFG) == 1.0
        assert trainer.warmup(29, self.CFG) == 1.0

    def test_midpoint_half(self):
        assert trainer.warmup(15, self.CFG) == 0.5

    def test_step_when_start_equals_full(self):
        cfg = tiny_cfg(epochs=10, warmup_start=4, warmup_full=4)
        assert trainer.warmup(3, cfg) == 0.0
        assert trainer.warmup(4, cfg) == 1.0

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            trainer.warmup(-1, self.CFG)


class TestRefinedTargets:
    CFG = tiny_cfg(epochs=10, warmup_start=2, warmup_full=4)

    def test_one_hot_co_prediction_fixed_point(self):
        co = np.array([[1.0, 0.0, 0.0, 0.0]])
        ref = trainer.refined_targets(co, reliability.one_hot([2], 4), self.CFG)
        assert np.allclose(ref[0], co[0])

    def test_low_confidence_falls_back_to_given(self):
        co = np.full((1, 4), 0.25)
        ref = trainer.refined_targets(co, reliability.one_hot([2], 4), self.CFG)
        assert np.array_equal(ref[0], [0, 0, 1, 0])

    def test_uniform_stays_uniform_under_sharpening(self):
        assert np.allclose(trainer.sharpen(np.full((1, 4), 0.25), 0.5), 0.25)

    def test_sharpening_increases_peak(self):
        probs = np.array([[0.7, 0.2, 0.1]])
        out = trainer.sharpen(probs, 0.5)
        assert out[0, 0] > 0.7
        assert abs(out.sum() - 1.0) < 1e-12

    def test_distributions_sum_to_one(self):
        rng = np.random.default_rng(0)
        co = rng.random((10, 4))
        co /= co.sum(axis=1, keepdims=True)
        ref = trainer.refined_targets(co, reliability.one_hot(rng.integers(0, 4, 10), 4),
                                      self.CFG)
        assert np.allclose(ref.sum(axis=1), 1.0, atol=1e-9)


class TestConfidenceFilter:
    CFG = tiny_cfg(epochs=10, conf_threshold=0.9)

    def test_threshold_zero_keeps_all(self):
        cfg = tiny_cfg(conf_threshold=1e-9)
        co = np.full((5, 4), 0.25)
        assert len(trainer.confidence_filter(co, cfg)) == 5

    def test_uniform_predictions_empty_outside_warmup(self):
        co = np.full((5, 4), 0.25)
        assert len(trainer.confidence_filter(co, self.CFG)) == 0

    def test_warmup_passes_full_batch(self):
        co = np.full((5, 4), 0.25)
        assert len(trainer.confidence_filter(co, self.CFG, warmup_active=True)) == 5

    def test_enumerated_fixture(self):
        co = np.array([[0.95, 0.05, 0.0, 0.0],
                       [0.50, 0.50, 0.0, 0.0],
                       [0.05, 0.91, 0.04, 0.0],
                       [0.89, 0.11, 0.0, 0.0]])
        assert list(trainer.confidence_filter(co, self.CFG)) == [0, 2]


class TestReweightedCe:
    """The head on cached logits, and through a forward and backward pass
    (oracles.head_grad) where a parameter gradient is needed."""

    def setup_method(self):
        arch = net.Architecture(3, 4, 2, 3)
        rng = np.random.default_rng(1)
        self.params = net.ModelParams(arch, 0.4 * rng.standard_normal(arch.n_params))
        self.x = rng.standard_normal((6, 3))
        t = np.abs(rng.standard_normal((6, 2)))
        self.targets = t / t.sum(axis=1, keepdims=True)
        self.r = rng.uniform(0.1, 2.0, 6)
        self.bc = np.arange(6)

    def loss_grad(self, r, bc, eta_w=1.0, params=None):
        return head_grad(params or self.params, self.x, trainer.reweighted_ce_grad,
                         self.targets, r, bc, eta_w)

    def test_equal_reliabilities_give_constant_multiplier(self):
        r = np.full(6, 0.8)
        loss = self.loss_grad(r, self.bc, eta_w=1.0)[0]
        plain = self.loss_grad(r, self.bc, eta_w=0.0)[0]
        assert loss == pytest.approx(2.0 * plain, rel=1e-6)

    def test_eta_zero_is_plain_mean_ce(self):
        loss = self.loss_grad(self.r, self.bc, eta_w=0.0)[0]
        logp = net.log_softmax(net.forward_batch(self.params, self.x).logits)
        expected = float(-(self.targets * logp).sum(axis=1).mean())
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_empty_filter_returns_zero(self):
        loss, grad = self.loss_grad(self.r, np.array([], dtype=int))
        assert loss == 0.0 and np.all(grad == 0.0)

    def test_gradient_matches_finite_differences(self):
        bc = np.array([0, 2, 3, 5])
        _, grad = self.loss_grad(self.r, bc)
        fd = fd_gradient(lambda f: self.loss_grad(
            self.r, bc, params=net.ModelParams(self.params.arch, f))[0], self.params.flat)
        assert max_rel_error(fd, grad) < 1e-5

    def test_logit_gradient_matches_fd_and_is_zero_outside_filter(self):
        bc = np.array([1, 2, 4])
        logits = net.forward_batch(self.params, self.x).logits
        _, dlogits = trainer.reweighted_ce_grad(logits, self.targets, self.r, bc, 1.0)
        fd = fd_gradient(lambda flat: trainer.reweighted_ce_grad(
            flat.reshape(logits.shape), self.targets, self.r, bc, 1.0)[0], logits.ravel())
        assert max_rel_error(fd, dlogits) < 1e-5
        assert np.all(dlogits[[0, 3, 5]] == 0.0)


class TestConsistency:
    def setup_method(self):
        arch = net.Architecture(3, 4, 2, 3)
        rng = np.random.default_rng(2)
        self.params = net.ModelParams(arch, 0.4 * rng.standard_normal(arch.n_params))
        self.strong = rng.standard_normal((5, 3))
        self.logits = net.forward_batch(self.params, self.strong).logits
        t = np.abs(rng.standard_normal((5, 2)))
        self.targets = t / t.sum(axis=1, keepdims=True)

    def test_equals_unweighted_ce_of_same_inputs(self):
        bc = np.arange(5)
        ce, dce = trainer.reweighted_ce_grad(self.logits, self.targets, np.ones(5), bc, 0.0)
        cr, dcr = trainer.consistency_loss_grad(self.logits, self.targets, bc)
        assert cr == pytest.approx(ce, abs=1e-12)
        assert np.allclose(dcr, dce, rtol=0.0, atol=1e-15)

    def test_self_target_gives_entropy(self):
        probs = net.softmax(self.logits)
        bc = np.arange(5)
        loss, _ = trainer.consistency_loss_grad(self.logits, probs, bc)
        entropy = float(-(probs * np.log(probs)).sum(axis=1).mean())
        assert loss == pytest.approx(entropy, abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        bc = np.array([1, 3])
        _, grad = head_grad(self.params, self.strong, trainer.consistency_loss_grad,
                            self.targets, bc)
        fd = fd_gradient(lambda f: head_grad(
            net.ModelParams(self.params.arch, f), self.strong, trainer.consistency_loss_grad,
            self.targets, bc)[0], self.params.flat)
        assert max_rel_error(fd, grad) < 1e-5


class _StepFixture:
    """One batch of a stack of two nets: the second has its own parameters
    and every per-sample input in reverse row order, with the complementary
    filter."""

    B = 6

    def setup_method(self):
        rng = np.random.default_rng(11)
        self.cfg = tiny_cfg(epochs=10)
        arch = net.Architecture(3, 5, 3, 4)
        self.params = net.ModelParams(arch, 0.4 * rng.standard_normal(arch.n_params))
        self.xw = rng.standard_normal((self.B, 3))
        self.xs = rng.standard_normal((self.B, 3))
        t = np.abs(rng.standard_normal((self.B, 3)))
        self.targets = t / t.sum(axis=1, keepdims=True)
        self.r = rng.uniform(0.1, 2.0, self.B)
        self.beta = rng.random(self.B)
        self.pc = rng.integers(0, 3, self.B)
        self.y = rng.integers(0, 3, self.B)
        self.pairs = mixup.build_pairs(self.xw, self.r, self.targets, self.cfg.ram,
                                       np.random.default_rng(1))

    def stacked(self, bc):
        """The stack's parameters, per-net inputs, filters and Mixup pairs."""
        flip = lambda a: np.asarray(a)[::-1]
        stack = lambda a: np.stack([a, flip(a)])
        p = net.stack_params([self.params, net.ModelParams(self.params.arch,
                                                           flip(self.params.flat))])
        per_net = tuple(stack(a) for a in (self.targets, self.r, self.pc, self.beta))
        bcs = [np.asarray(bc, dtype=np.int64), np.setdiff1d(np.arange(self.B), bc)]
        pairs = mixup.MixBatch(j=np.stack([self.pairs.j] * 2), lam=np.stack([self.pairs.lam] * 2),
                               w=stack(self.pairs.w), x=stack(self.pairs.x),
                               y=stack(self.pairs.y))
        return p, per_net, bcs, pairs

    def step(self, bc, w_t, cfg):
        """step_loss_grad as co_train calls it, with the stack and its inputs."""
        p, (targets, r, pc, beta), bcs, pairs = self.stacked(bc)
        buffers = net.Buffers()
        fw = trainer.step_forward(p, self.xw, self.xs, w_t, cfg, buffers)
        return trainer.step_loss_grad(
            p, self.xw, fw, targets, r, bcs, cfg.eta_w, w_t, cfg,
            pairs=pairs if w_t > 0 else None, pseudo_cls=pc,
            gate_beta=beta, y_true=self.y, buffers=buffers)


class TestTotalLoss(_StepFixture):
    """The objective's value, as step_loss_grad records it for each net."""

    BC = [0, 2, 3]

    def test_warmup_zero_is_ce_only(self):
        losses, _, _ = self.step(self.BC, 0.0, self.cfg)
        assert set(losses) == {"ce_re", "total"}
        for k in range(2):
            assert losses["total"][k] == losses["ce_re"][k]

    def test_full_warmup_no_contrastive(self):
        cfg = dataclasses.replace(self.cfg, lambda_cdcl=0.0)
        losses, _, _ = self.step(self.BC, 1.0, cfg)
        for k in range(2):
            assert losses["cdcl"][k] != 0.0
            assert losses["total"][k] == pytest.approx(
                losses["ce_re"][k] + losses["cr"][k] + losses["ram"][k], rel=1e-15, abs=0.0)

    def test_linear_in_contrastive_coefficient(self):
        low, _, _ = self.step(self.BC, 1.0, dataclasses.replace(self.cfg, lambda_cdcl=0.5))
        high, _, _ = self.step(self.BC, 1.0, dataclasses.replace(self.cfg, lambda_cdcl=0.6))
        assert set(low) == set(high)
        for key in set(low) - {"total"}:
            assert np.array_equal(low[key], high[key]), key
        for k in range(2):
            assert high["total"][k] - low["total"][k] == pytest.approx(0.1 * low["cdcl"][k],
                                                                       abs=1e-12)


class TestCoTrain:
    def test_zero_epochs_initial_only(self):
        train, meta, test = tiny_data()
        report = trainer.co_train(train, meta, test, tiny_cfg(epochs=0))
        assert report.epochs == []
        assert report.summary["best_epoch"] is None
        assert 0.0 <= report.initial["test_acc"]["ensemble"] <= 1.0

    def test_missing_meta_rejected(self):
        train, meta, test = tiny_data()
        empty = data.MetaSet(x=np.zeros((0, 3)), y=np.zeros(0, dtype=int),
                             ids=np.zeros(0, dtype=int))
        with pytest.raises(ConfigError):
            trainer.co_train(train, empty, test, tiny_cfg())

    def test_determinism_bitwise(self):
        train, meta, test = tiny_data()
        a = trainer.co_train(train, meta, test, tiny_cfg())
        b = trainer.co_train(train, meta, test, tiny_cfg())
        assert a.to_json() == b.to_json()

    def test_seed_swap_symmetry(self):
        train, meta, test = tiny_data()
        ra = trainer.co_train(train, meta, test, tiny_cfg(net1_seed=41, net2_seed=42))
        rb = trainer.co_train(train, meta, test, tiny_cfg(net1_seed=42, net2_seed=41))
        for rec_a, rec_b in zip(ra.epochs, rb.epochs):
            assert rec_a["test_acc"]["net1"] == rec_b["test_acc"]["net2"]
            assert rec_a["test_acc"]["net2"] == rec_b["test_acc"]["net1"]
            assert rec_a["test_acc"]["ensemble"] == rec_b["test_acc"]["ensemble"]
            assert rec_a["losses"]["net1"] == rec_b["losses"]["net2"]
            assert rec_a["losses"]["net2"] == rec_b["losses"]["net1"]

    def test_warmup_gate_isolates_auxiliary_paths(self):
        # during a run that never leaves warm-up, toggling the auxiliary
        # modules must not change any update or metric (config echo aside)
        train, meta, test = tiny_data()
        on = tiny_cfg(epochs=3, warmup_start=3, warmup_full=3)
        off = dataclasses.replace(on, use_ram=False, use_cdcl=False, use_cr=False)
        ra = trainer.co_train(train, meta, test, on, config_echo={})
        rb = trainer.co_train(train, meta, test, off, config_echo={})
        assert ra.to_json() == rb.to_json()

    def test_mass_identity_tracked_under_tolerance(self):
        train, meta, test = tiny_data()
        report = trainer.co_train(train, meta, test, tiny_cfg())
        assert report.summary["mass_gap_max"] is not None
        assert report.summary["mass_gap_max"] <= 1e-9
        assert report.summary["alpha_min"] >= 0.0
        assert report.summary["beta_min"] >= 0.0

    def test_provenance_sources_recorded(self):
        # a confident row takes the sharpened co-prediction, the other its label
        cfg = tiny_cfg(epochs=10)
        co = np.array([[0.97, 0.01, 0.01, 0.01], [0.4, 0.3, 0.2, 0.1]])
        ref = trainer.refined_targets(co, reliability.one_hot([3, 3], 4), cfg)
        assert np.array_equal(ref[0], trainer.sharpen(co[:1], cfg.sharpen_temp)[0])
        assert np.array_equal(ref[1], reliability.one_hot([3], 4)[0])

    def test_divergence_guard(self):
        train, meta, test = tiny_data()
        cfg = tiny_cfg(lr=1e6, epochs=4)  # guaranteed blow-up
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(Exception) as exc_info:
                trainer.co_train(train, meta, test, cfg)
        from noisylab.util import TrainingDiverged

        assert isinstance(exc_info.value, (TrainingDiverged, ValueError))

    def test_wall_clock_excluded_from_json(self):
        train, meta, test = tiny_data()
        report = trainer.co_train(train, meta, test, tiny_cfg(epochs=1, warmup_start=0, warmup_full=1))
        assert len(report.wall_seconds) == 1
        assert "wall" not in report.to_json()

    def test_total_gradient_matches_fd_through_composed_objective(self):
        # freeze one batch's assembled objective and check the network step's
        # fused gradient (one forward per input block, one backward) against
        # central differences
        rng = np.random.default_rng(9)
        cfg = tiny_cfg(epochs=10, warmup_start=0, warmup_full=2)
        arch = net.Architecture(3, 4, 2, 3)
        params = net.ModelParams(arch, 0.4 * rng.standard_normal(arch.n_params))
        xw = rng.standard_normal((5, 3))
        xs = rng.standard_normal((5, 3))
        t = np.abs(rng.standard_normal((5, 2)))
        targets = t / t.sum(axis=1, keepdims=True)
        r = rng.uniform(0.1, 2.0, 5)
        beta = rng.random(5)
        pc = rng.integers(0, 2, 5)
        bc = np.array([0, 1, 3])
        pairs = mixup.build_pairs(xw, r, targets, cfg.ram, np.random.default_rng(1))
        for w_t in (0.0, 0.5):
            err = fused_step_fd_error(params, xw, xs, targets, r, bc, pairs, pc, beta, w_t, cfg)
            assert err < 1e-5, w_t


class TestFusedStep(_StepFixture):
    """One network step's single backward pass against the sum of the
    per-term parameter gradients."""

    @pytest.mark.parametrize("w_t", [0.0, 0.4])
    @pytest.mark.parametrize("bc", [[], [0, 2, 3], list(range(_StepFixture.B))],
                             ids=["empty_bc", "partial_bc", "full_bc"])
    def test_fused_gradient_equals_sum_of_terms(self, bc, w_t):
        cfg, xw, xs = self.cfg, self.xw, self.xs
        losses, grad, purity = self.step(bc, w_t, cfg)
        p, (targets, r, pc, beta), bcs, pairs = self.stacked(bc)
        for k in range(2):
            pk = p[k]
            terms = {"ce_re": head_grad(pk, xw, trainer.reweighted_ce_grad, targets[k], r[k],
                                        bcs[k], cfg.eta_w)}
            expected = terms["ce_re"][1]
            if w_t > 0:
                terms["cr"] = head_grad(pk, xs, trainer.consistency_loss_grad, targets[k],
                                        bcs[k])
                terms["ram"] = net.weighted_ce_loss_grad(pk, pairs.x[k], pairs.y[k],
                                                         pairs.w[k])
                terms["cdcl"] = cdcl_grad(pk, xw, xs, pc[k], beta[k], cfg.cdcl)
                expected = expected + w_t * (terms["cr"][1] + terms["ram"][1]
                                             + cfg.lambda_cdcl * terms["cdcl"][1])
            assert np.linalg.norm(grad[k] - expected) <= 1e-12 * np.linalg.norm(expected)
            assert set(losses) == set(terms) | {"total"}
            for key, (loss, _) in terms.items():
                assert losses[key][k] == pytest.approx(loss, rel=1e-12, abs=1e-15)
        assert (purity is None) == (w_t == 0)
        if purity is not None:
            assert purity.shape == (2, 4)

    def test_partner_reads_its_shared_forward(self, monkeypatch):
        # each net's frozen co-network probabilities are, bit for bit, the
        # softmax of the weak-view rows of its partner's slice of the stack's
        # shared forward; the forward's logits live in reused buffers, so the
        # record keeps a copy
        events = []
        forward, refined = trainer.forward_batch, trainer.refined_targets

        def recording_forward(params, x, eval_mode=False, buffers=None, row0=0,
                              total_rows=None):
            out = forward(params, x, buffers=buffers, row0=row0, total_rows=total_rows)
            events.append(("forward", row0, out.logits.copy()))
            return out

        def recording_refined(co_probs, given_targets, cfg):
            events.append(("co", None, co_probs))
            return refined(co_probs, given_targets, cfg)

        monkeypatch.setattr(trainer, "forward_batch", recording_forward)
        monkeypatch.setattr(trainer, "refined_targets", recording_refined)
        train, meta, test = tiny_data()
        cfg = tiny_cfg(epochs=3)
        trainer.co_train(train, meta, test, cfg)
        checked = 0
        for k, (kind, _, co_probs) in enumerate(events):
            if kind != "co":
                continue
            # the batch's shared forward: the last forward from row 0
            shared = [e[2] for e in events[:k] if e[0] == "forward" and e[1] == 0][-1]
            b = co_probs.shape[1]
            assert np.array_equal(net.softmax(shared[1, :b]), co_probs[0])  # net1's partner
            assert np.array_equal(net.softmax(shared[0, :b]), co_probs[1])  # net2's partner
            checked += 1
        assert checked == cfg.epochs * -(-train.n // cfg.batch_size)

    def test_meta_step_reuses_the_weak_view_softmax(self, monkeypatch):
        # the probabilities co_train hands the meta step are, bit for bit,
        # the softmax the meta step would compute from its cached forward
        calls = []
        inner = trainer.meta_gradients_closed

        def recording(params, batch_x, given, pseudo, meta, eta, out=None, probs=None,
                      **kwargs):
            assert probs is not None
            assert np.array_equal(probs, net.softmax(out.logits))
            calls.append(probs.shape)
            return inner(params, batch_x, given, pseudo, meta, eta, out=out, probs=probs,
                         **kwargs)

        monkeypatch.setattr(trainer, "meta_gradients_closed", recording)
        train, meta, test = tiny_data()
        cfg = tiny_cfg(epochs=2)
        trainer.co_train(train, meta, test, cfg)
        assert len(calls) == cfg.epochs * -(-train.n // cfg.batch_size)


class TestEpochTally:
    def test_stacked_pairs_sum_net_by_net(self):
        # the float sums add net 1's pairs before net 2's, batch after batch
        rng = np.random.default_rng(3)
        b, cfg = 40, mixup.RamConfig()
        clean = rng.random(b) < 0.6
        gens = [np.random.default_rng(1), np.random.default_rng(2)]
        tally = trainer._EpochTally()
        lam_sums, wmix, kinds_all, lam_all = np.zeros(3), 0.0, [], []
        for _ in range(5):
            x, r = rng.standard_normal((b, 2)), rng.uniform(0.1, 2.0, (2, b))
            pairs = mixup.build_pairs(x, r, np.full((2, b, 2), 0.5), cfg, gens)
            tally.add_pairs(pairs, clean)
            for k in range(2):
                kinds = clean.astype(np.int64) + clean[pairs.j[k]]
                wmix += float(pairs.w[k].sum())
                for kind in range(3):
                    lam_sums[kind] += pairs.lam[k][kinds == kind].sum()
                kinds_all.append(kinds)
                lam_all.append(pairs.lam[k])
        assert tally.wmix_sum == wmix and tally.wmix_count == 5 * 2 * b
        assert np.array_equal(tally.lam_sums, lam_sums)
        kinds, lam = np.concatenate(kinds_all), np.concatenate(lam_all)
        assert np.array_equal(tally.lam_counts, np.bincount(kinds, minlength=3))
        bins = np.minimum((lam * 10).astype(np.int64), 9)
        assert np.array_equal(tally.lam_hist,
                              np.bincount(kinds * 10 + bins, minlength=30).reshape(3, 10))


class TestConfigValidation:
    def test_warmup_ordering_enforced(self):
        with pytest.raises(ConfigError):
            tiny_cfg(warmup_start=3, warmup_full=2)

    def test_warmup_cannot_exceed_epochs(self):
        with pytest.raises(ConfigError):
            tiny_cfg(epochs=3, warmup_start=1, warmup_full=5)

    def test_conf_threshold_range(self):
        with pytest.raises(ConfigError):
            tiny_cfg(conf_threshold=0.0)
        with pytest.raises(ConfigError):
            tiny_cfg(conf_threshold=1.5)
