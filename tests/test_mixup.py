"""Reliability-arbitrated Mixup: clamping, the hand-written Beta sampler
against analytic moments, gating, pairing, and the gated loss."""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from noisylab import mixup, net
from noisylab.oracles import beta_mean_var, fd_gradient, max_rel_error
from noisylab.util import ConfigError

CFG = mixup.RamConfig()


class TestTotalReliability:
    def test_clamp_floor(self):
        assert mixup.total_reliability(0.0, 0.0, CFG) == pytest.approx(0.1)

    def test_interior_point(self):
        assert mixup.total_reliability(0.4, 0.6, CFG) == pytest.approx(1.0)

    def test_clamp_ceiling(self):
        assert mixup.total_reliability(2.0, 3.0, CFG) == pytest.approx(2.0)

    def test_vectorized(self):
        out = mixup.total_reliability(np.array([0.0, 1.0]), np.array([0.0, 4.0]), CFG)
        assert np.allclose(out, [0.1, 2.0])


def reference_gamma_sample(shape, rng):
    """mixup.gamma_sample's rejection loop as first written, kept verbatim:
    the production loop must consume the same random stream and return the
    same bits."""
    a = np.atleast_1d(np.asarray(shape, dtype=np.float64))
    boost = a < 1.0
    d = np.where(boost, a + 1.0, a) - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty_like(d)
    todo = np.ones(d.shape, dtype=bool)
    while todo.any():
        idx = np.flatnonzero(todo)
        x = rng.standard_normal(idx.size)
        u = rng.random(idx.size)
        v = (1.0 + c[idx] * x) ** 3
        ok = v > 0
        if ok.any():
            xi, ui, vi, di = x[ok], u[ok], v[ok], d[idx[ok]]
            squeeze = ui < 1.0 - 0.0331 * xi ** 4
            with np.errstate(divide="ignore"):
                full = np.log(ui) < 0.5 * xi * xi + di * (1.0 - vi + np.log(vi))
            accept = squeeze | full
            hit = idx[ok][accept]
            out[hit] = (di * vi)[accept]
            todo[hit] = False
    if boost.any():
        u2 = rng.random(int(boost.sum()))
        out[boost] *= u2 ** (1.0 / a[boost])
    return out if np.ndim(shape) else float(out[0])


class TestGammaSampler:
    def test_same_stream_as_the_reference_loop(self):
        # shapes below one (boosted), near zero, around one and up to 1e3,
        # in vectors of 1 to 300: bit-equal draws and the same generator
        # state afterwards, so every later draw of a run is unchanged too
        cases = np.random.default_rng(2027)
        for case in range(3000):
            size = int(cases.integers(1, 301))
            kind = case % 4
            if kind == 0:
                shape = cases.uniform(1e-3, 1.0, size)
            elif kind == 1:
                shape = 10.0 ** cases.uniform(-300, -3, size)
            elif kind == 2:
                shape = 10.0 ** cases.uniform(-1, 3, size)
            else:
                shape = np.where(cases.random(size) < 0.5, cases.uniform(0.5, 1.5, size),
                                 cases.uniform(1.0, 1e3, size))
            seed = int(cases.integers(2**32))
            new_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            with np.errstate(all="raise", under="ignore"):  # no warning escapes the loop
                got = mixup.gamma_sample(shape, new_rng)
            with np.errstate(divide="ignore", under="ignore"):
                want = reference_gamma_sample(shape, ref_rng)
            assert np.array_equal(got, want), case
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state, case

    def test_moments_vs_analytic(self):
        rng = np.random.default_rng(0)
        for shape in (0.3, 0.7, 1.0, 2.5, 8.0):
            draws = mixup.gamma_sample(np.full(200_000, shape), rng)
            se_mean = np.sqrt(shape / 200_000)
            assert abs(draws.mean() - shape) < 4 * se_mean
            # variance of Gamma(k,1) is k; Var of sample var ~ (mu4 - var^2)/n
            mu4 = 3 * shape * (shape + 2)  # 4th central moment of Gamma(k,1)
            se_var = np.sqrt((mu4 - shape ** 2) / 200_000)
            assert abs(draws.var() - shape) < 4 * se_var

    def test_ks_against_scipy_distribution(self):
        rng = np.random.default_rng(1)
        for shape in (0.5, 3.0):
            draws = mixup.gamma_sample(np.full(20_000, shape), rng)
            _, p = stats.kstest(draws, "gamma", args=(shape,))
            assert p > 0.001

    def test_positive_shapes_required(self):
        with pytest.raises(ValueError):
            mixup.gamma_sample(np.array([0.0]), np.random.default_rng(0))

    @pytest.mark.parametrize("shape", [[np.nan], [np.inf], [1.0, np.nan]],
                             ids=["nan", "inf", "valid_then_nan"])
    def test_finite_shapes_required(self, shape):
        # a NaN shape is never accepted by the rejection loop, which then never ends
        with pytest.raises(ValueError):
            mixup.gamma_sample(np.array(shape), np.random.default_rng(0))


class TestSampleLambda:
    def test_symmetric_case_mean_half(self):
        rng = np.random.default_rng(2)
        draws = mixup.sample_lambda_batch(np.ones(100_000), np.ones(100_000), CFG, rng)
        # equal reliabilities approach Beta(gamma/2, gamma/2)
        mean, var = beta_mean_var(2.0, 2.0)
        se = np.sqrt(var / 100_000)
        assert abs(draws.mean() - 0.5) < 3 * se

    def test_three_to_one_mean(self):
        rng = np.random.default_rng(3)
        r_i, r_j = 3.0, 1.0
        draws = mixup.sample_lambda_batch(np.full(100_000, r_i), np.full(100_000, r_j),
                                          CFG, rng)
        mean, var = beta_mean_var(3.0, 1.0)
        se = np.sqrt(var / 100_000)
        assert abs(draws.mean() - 0.75) < 3 * se
        assert abs(draws.mean() - mean) < 3 * se

    def test_support_strict_interior(self):
        rng = np.random.default_rng(4)
        draws = mixup.sample_lambda_batch(np.full(50_000, 0.1), np.full(50_000, 2.0),
                                          CFG, rng)
        assert np.all(draws > 0.0) and np.all(draws < 1.0)
        assert np.all(np.isfinite(draws))

    def test_shape_parameters_sum_below_gamma(self):
        for r_i, r_j in [(0.1, 0.1), (2.0, 2.0), (0.1, 2.0)]:
            denom = r_i + r_j + mixup.DELTA
            a = CFG.gamma * r_i / denom
            b = CFG.gamma * r_j / denom
            assert a + b < CFG.gamma

    def test_stochastic_dominance_toward_reliable_side(self):
        rng = np.random.default_rng(5)
        draws = mixup.sample_lambda_batch(np.full(100_000, 2.0), np.full(100_000, 0.5),
                                          CFG, rng)
        se = draws.std() / np.sqrt(draws.size)
        assert draws.mean() > 0.5 + 3 * se


def gate_weights(r):
    """Gating weights build_pairs assigns to a batch with reliabilities r."""
    b = len(r)
    pairs = mixup.build_pairs(np.zeros((b, 2)), np.asarray(r), np.tile([1.0, 0.0], (b, 1)),
                              CFG, np.random.default_rng(0))
    return pairs.w


class TestGrgWeight:
    def test_max_of_pair(self):
        assert np.allclose(gate_weights([0.4, 0.7]), [0.7, 0.7])

    def test_both_weak_floor(self):
        assert np.allclose(gate_weights([CFG.r_min, CFG.r_min]), CFG.r_min)

    def test_symmetry_and_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = rng.uniform(CFG.r_min, CFG.r_max, 2)
            assert np.array_equal(gate_weights([a, b]), gate_weights([b, a]))
            assert gate_weights([a + 0.05, b])[0] >= gate_weights([a, b])[0]


class TestBuildPairs:
    def test_single_sample_self_pair(self):
        x = np.array([[1.0, 2.0]])
        targets = np.array([[1.0, 0.0]])
        pairs = mixup.build_pairs(x, np.array([1.0]), targets, CFG,
                                  np.random.default_rng(0))
        assert len(pairs.lam) == 1
        assert pairs.j[0] == 0
        assert np.allclose(pairs.x[0], x[0])

    def test_no_self_pairs_beyond_singleton(self):
        rng = np.random.default_rng(1)
        for b in (2, 3, 5, 17, 64):
            x = rng.standard_normal((b, 2))
            targets = np.tile([1.0, 0.0], (b, 1))
            pairs = mixup.build_pairs(x, np.ones(b), targets, CFG, rng)
            assert np.all(pairs.j != np.arange(b))

    def test_partner_multiset_is_permutation(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((16, 2))
        targets = np.tile([0.5, 0.5], (16, 1))
        pairs = mixup.build_pairs(x, np.ones(16), targets, CFG, rng)
        assert sorted(pairs.j) == list(range(16))

    def test_mixture_invariants(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 3))
        targets = np.abs(rng.standard_normal((12, 4)))
        targets /= targets.sum(axis=1, keepdims=True)
        r = rng.uniform(CFG.r_min, CFG.r_max, 12)
        pairs = mixup.build_pairs(x, r, targets, CFG, rng)
        for k in range(12):
            i, j = k, pairs.j[k]
            assert 0.0 < pairs.lam[k] < 1.0
            assert CFG.r_min <= pairs.w[k] <= CFG.r_max
            assert abs(pairs.y[k].sum() - 1.0) < 1e-9
            lo = np.minimum(x[i], x[j]) - 1e-12
            hi = np.maximum(x[i], x[j]) + 1e-12
            assert np.all(pairs.x[k] >= lo) and np.all(pairs.x[k] <= hi)
            # the vectorized mix equals the per-pair expression bit for bit
            assert np.array_equal(pairs.x[k], pairs.lam[k] * x[i] + (1.0 - pairs.lam[k]) * x[j])
            assert pairs.w[k] == pytest.approx(max(r[i], r[j]))

    def test_gate_disabled_forces_unit_weights(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 2))
        targets = np.tile([1.0, 0.0], (8, 1))
        pairs = mixup.build_pairs(x, rng.uniform(0.1, 2.0, 8), targets, CFG, rng,
                                  gate=False)
        assert np.all(pairs.w == 1.0)

    def test_endpoint_lambda_recovers_first_target(self):
        # every row is lam * first endpoint + (1 - lam) * partner, so a
        # coefficient of one recovers the first endpoint's target
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])
        pairs = mixup.build_pairs(x, np.ones(2), targets, CFG,
                                  np.random.default_rng(5))
        lam = pairs.lam[:, None]
        assert np.allclose(pairs.y, lam * targets + (1.0 - lam) * targets[pairs.j])


class TestRamLoss:
    def _pairs(self, seed, b=6):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((b, 3))
        targets = np.abs(rng.standard_normal((b, 2)))
        targets /= targets.sum(axis=1, keepdims=True)
        r = rng.uniform(CFG.r_min, CFG.r_max, b)
        return mixup.build_pairs(x, r, targets, CFG, rng)

    def _params(self, seed=0):
        arch = net.Architecture(3, 4, 2, 3)
        rng = np.random.default_rng(seed)
        return net.ModelParams(arch, 0.4 * rng.standard_normal(arch.n_params))

    @staticmethod
    def loss_grad(params, pairs):
        return net.weighted_ce_loss_grad(params, pairs.x, pairs.y, pairs.w)

    def test_zero_gates_zero_loss(self):
        params = self._params()
        pairs = self._pairs(0)
        pairs = dataclasses.replace(pairs, w=np.zeros_like(pairs.w))
        assert self.loss_grad(params, pairs)[0] == 0.0

    def test_gate_scaling_linearity(self):
        params = self._params(1)
        pairs = self._pairs(1)
        unit = dataclasses.replace(pairs, w=np.full_like(pairs.w, 1.0))
        scaled = dataclasses.replace(pairs, w=np.full_like(pairs.w, 3.7))
        base = self.loss_grad(params, unit)[0]
        assert self.loss_grad(params, scaled)[0] == pytest.approx(3.7 * base, rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        params = self._params(2)
        pairs = self._pairs(2)
        _, grad = self.loss_grad(params, pairs)
        fd = fd_gradient(lambda f: self.loss_grad(net.ModelParams(params.arch, f), pairs)[0],
                         params.flat)
        assert max_rel_error(fd, grad) < 1e-5


def test_config_validation():
    with pytest.raises(ConfigError):
        mixup.RamConfig(r_min=0.5, r_max=0.2)
    with pytest.raises(ConfigError):
        mixup.RamConfig(gamma=0.0)
