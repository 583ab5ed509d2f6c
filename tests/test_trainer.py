"""Objective assembly (warm-up, refinement, filtering, the combined loss)
and the dual-network loop's structural properties."""

import dataclasses

import numpy as np
import pytest

from noisylab import data, net, trainer
from noisylab.data import AugmentConfig
from noisylab.oracles import fd_gradient, max_rel_error
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
        ref = trainer.refined_targets(co, np.array([2]), self.CFG)
        assert np.allclose(ref.dists[0], co[0])
        assert ref.source[0] == trainer.SOURCE_CO

    def test_low_confidence_falls_back_to_given(self):
        co = np.full((1, 4), 0.25)
        ref = trainer.refined_targets(co, np.array([2]), self.CFG)
        assert np.allclose(ref.dists[0], [0, 0, 1, 0])
        assert ref.source[0] == trainer.SOURCE_GIVEN

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
        ref = trainer.refined_targets(co, rng.integers(0, 4, 10), self.CFG)
        assert np.allclose(ref.dists.sum(axis=1), 1.0, atol=1e-9)


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
    def setup_method(self):
        self.cfg = tiny_cfg(epochs=10)
        arch = net.Architecture(3, 4, 2, 3)
        rng = np.random.default_rng(1)
        self.params = net.ModelParams(arch, 0.4 * rng.standard_normal(arch.n_params))
        self.x = rng.standard_normal((6, 3))
        t = np.abs(rng.standard_normal((6, 2)))
        self.targets = t / t.sum(axis=1, keepdims=True)
        self.r = rng.uniform(0.1, 2.0, 6)
        self.bc = np.arange(6)

    def test_equal_reliabilities_give_constant_multiplier(self):
        r = np.full(6, 0.8)
        loss = trainer.reweighted_ce(self.params, self.x, self.targets, r,
                                     self.bc, self.cfg, eta_w=1.0)
        plain = trainer.reweighted_ce(self.params, self.x, self.targets, r,
                                      self.bc, self.cfg, eta_w=0.0)
        assert loss == pytest.approx(2.0 * plain, rel=1e-6)

    def test_eta_zero_is_plain_mean_ce(self):
        loss = trainer.reweighted_ce(self.params, self.x, self.targets, self.r,
                                     self.bc, self.cfg, eta_w=0.0)
        logits = net.forward_batch(self.params, self.x).logits
        expected = float(net.ce_batch(logits, self.targets).mean())
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_empty_filter_returns_zero(self):
        loss, grad = trainer.reweighted_ce_grad(self.params, self.x, self.targets,
                                                self.r, np.array([], dtype=int), self.cfg)
        assert loss == 0.0 and np.all(grad == 0.0)

    def test_gradient_matches_finite_differences(self):
        bc = np.array([0, 2, 3, 5])
        _, grad = trainer.reweighted_ce_grad(self.params, self.x, self.targets,
                                             self.r, bc, self.cfg)
        fd = fd_gradient(lambda f: trainer.reweighted_ce(
            net.ModelParams(self.params.arch, f), self.x, self.targets,
            self.r, bc, self.cfg), self.params.flat)
        assert max_rel_error(fd, grad) < 1e-5


class TestConsistency:
    def setup_method(self):
        arch = net.Architecture(3, 4, 2, 3)
        rng = np.random.default_rng(2)
        self.params = net.ModelParams(arch, 0.4 * rng.standard_normal(arch.n_params))
        self.strong = rng.standard_normal((5, 3))
        t = np.abs(rng.standard_normal((5, 2)))
        self.targets = t / t.sum(axis=1, keepdims=True)

    def test_equals_unweighted_ce_of_same_inputs(self):
        cfg = tiny_cfg(epochs=10)
        bc = np.arange(5)
        ce = trainer.reweighted_ce(self.params, self.strong, self.targets,
                                   np.ones(5), bc, cfg, eta_w=0.0)
        cr = trainer.consistency_loss(self.params, self.strong, self.targets, bc)
        assert cr == pytest.approx(ce, abs=1e-12)

    def test_self_target_gives_entropy(self):
        logits = net.forward_batch(self.params, self.strong).logits
        probs = net.softmax(logits)
        bc = np.arange(5)
        loss = trainer.consistency_loss(self.params, self.strong, probs, bc)
        entropy = float(-(probs * np.log(probs)).sum(axis=1).mean())
        assert loss == pytest.approx(entropy, abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        bc = np.array([1, 3])
        _, grad = trainer.consistency_loss_grad(self.params, self.strong,
                                                self.targets, bc)
        fd = fd_gradient(lambda f: trainer.consistency_loss(
            net.ModelParams(self.params.arch, f), self.strong, self.targets, bc),
            self.params.flat)
        assert max_rel_error(fd, grad) < 1e-5


class TestTotalLoss:
    def test_warmup_zero_is_ce_only(self):
        cfg = tiny_cfg(epochs=10, warmup_start=5, warmup_full=6)
        comps = {"ce_re": 1.3, "cr": 9.0, "ram": 9.0, "cdcl": 9.0}
        assert trainer.total_loss(comps, 0, cfg) == pytest.approx(1.3)

    def test_full_warmup_no_contrastive(self):
        cfg = tiny_cfg(epochs=10, warmup_start=1, warmup_full=2, lambda_cdcl=0.0)
        comps = {"ce_re": 1.0, "cr": 0.5, "ram": 0.25, "cdcl": 7.0}
        assert trainer.total_loss(comps, 5, cfg) == pytest.approx(1.75)

    def test_linear_in_contrastive_coefficient(self):
        comps = {"ce_re": 1.0, "cr": 0.5, "ram": 0.25, "cdcl": 0.8}
        c1 = tiny_cfg(epochs=10, warmup_start=0, warmup_full=1, lambda_cdcl=0.5)
        c2 = tiny_cfg(epochs=10, warmup_start=0, warmup_full=1, lambda_cdcl=0.6)
        delta = trainer.total_loss(comps, 5, c2) - trainer.total_loss(comps, 5, c1)
        assert delta == pytest.approx(0.1 * 0.8, abs=1e-12)


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
        co = np.array([[0.97, 0.01, 0.01, 0.01], [0.4, 0.3, 0.2, 0.1]])
        ref = trainer.refined_targets(co, np.array([3, 3]), tiny_cfg(epochs=10))
        assert list(ref.source) == [trainer.SOURCE_CO, trainer.SOURCE_GIVEN]

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

    def test_reliability_stride_reuses_last_values(self):
        train, meta, test = tiny_data(n_per=60)  # several batches per epoch
        dense = trainer.co_train(train, meta, test, tiny_cfg(), config_echo={})
        strided = trainer.co_train(train, meta, test,
                                   tiny_cfg(reliability_stride=3), config_echo={})
        assert dense.to_json() != strided.to_json()
        assert strided.summary["mass_gap_max"] <= 1e-9

    def test_total_gradient_matches_fd_through_composed_objective(self):
        # freeze one batch's assembled objective and check the exact summed
        # gradient against central differences
        from noisylab import contrastive, mixup

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
        w_t = 0.5

        def value(flat):
            p = net.ModelParams(arch, flat)
            ce = trainer.reweighted_ce(p, xw, targets, r, bc, cfg)
            cr = trainer.consistency_loss(p, xs, targets, bc)
            ram = mixup.ram_loss(p, pairs)
            bank = contrastive.build_bank(p, xw, xs, pc, beta)
            cdcl = contrastive.cdcl_loss(bank, cfg.cdcl)
            return ce + w_t * (cr + ram + cfg.lambda_cdcl * cdcl)

        _, g_ce = trainer.reweighted_ce_grad(params, xw, targets, r, bc, cfg)
        _, g_cr = trainer.consistency_loss_grad(params, xs, targets, bc)
        _, g_ram = mixup.ram_loss_grad(params, pairs)
        _, g_cd = contrastive.cdcl_grad(params, xw, xs, pc, beta, cfg.cdcl)
        total_grad = g_ce + w_t * (g_cr + g_ram + cfg.lambda_cdcl * g_cd)
        fd = fd_gradient(value, params.flat)
        assert max_rel_error(fd, total_grad) < 1e-5


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
