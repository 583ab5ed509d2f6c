"""The oracles must themselves be trustworthy: cross-check the analytic
moment formulas against scipy and exercise the suite runner."""

import os

import numpy as np
import pytest
from scipy import stats

from noisylab import config, oracles
from noisylab.util import ConfigError


class TestFdGradient:
    def test_quadratic_exact(self):
        a = np.array([1.0, -2.0, 0.5])

        def f(x):
            return float(0.5 * (a * x * x).sum())

        x0 = np.array([0.3, 1.2, -0.7])
        fd = oracles.fd_gradient(f, x0)
        assert np.allclose(fd, a * x0, atol=1e-9)

    def test_trig(self):
        fd = oracles.fd_gradient(lambda x: float(np.sin(x).sum()), np.array([0.1, 1.0]))
        assert np.allclose(fd, np.cos([0.1, 1.0]), atol=1e-9)


class TestMaxRelError:
    def test_zero_for_equal(self):
        a = np.array([1.0, 2.0])
        assert oracles.max_rel_error(a, a) == 0.0

    def test_floor_ignores_agreeing_noise(self):
        a = np.array([1e-12, 1.0])
        b = np.array([-1e-12, 1.0])
        assert oracles.max_rel_error(a, b) < 1e-3

    def test_flags_disagreement(self):
        assert oracles.max_rel_error(np.array([1.0]), np.array([1.1])) > 0.05


class TestBetaMoments:
    @pytest.mark.parametrize("a,b", [(2.0, 2.0), (3.0, 1.0), (0.19, 3.8), (5.0, 0.5)])
    def test_mean_var_match_scipy(self, a, b):
        mean, var = oracles.beta_mean_var(a, b)
        s_mean, s_var = stats.beta.stats(a, b, moments="mv")
        assert mean == pytest.approx(float(s_mean), rel=1e-12)
        assert var == pytest.approx(float(s_var), rel=1e-12)

    @pytest.mark.parametrize("a,b", [(2.0, 2.0), (3.0, 1.0), (0.19, 3.8)])
    def test_fourth_central_moment_matches_scipy(self, a, b):
        mu4 = oracles.beta_central_moment4(a, b)
        _, var, _, kurt = stats.beta.stats(a, b, moments="mvsk")
        assert mu4 == pytest.approx(float((kurt + 3.0) * var ** 2), rel=1e-10)


class TestBruteForceScores:
    def test_pairwise_auroc_hand_case(self):
        assert oracles.pairwise_auroc(np.array([0.9, 0.8]),
                                      np.array([0.85, 0.1])) == 0.75

    def test_tie_counts_half(self):
        assert oracles.pairwise_auroc(np.array([0.5]), np.array([0.5])) == 0.5


@pytest.fixture(scope="module")
def suite_results():
    """Each registered suite's results by name, and run_suite("all") over
    those same results: every suite runs once."""
    per_suite = {name: oracles.run_suite(name) for name in sorted(oracles.SUITES)}
    with pytest.MonkeyPatch.context() as mp:
        for name, results in per_suite.items():
            mp.setitem(oracles.SUITES, name, lambda results=results: results)
        union = oracles.run_suite("all")
    return per_suite, union


class TestSuites:
    def test_all_registered_suites_pass(self, suite_results):
        for name, results in suite_results[0].items():
            assert results, name
            for res in results:
                assert res.passed, "%s: %s" % (name, res.line())

    def test_all_union(self, suite_results):
        per_suite, union = suite_results
        assert union == [res for name in sorted(per_suite) for res in per_suite[name]]

    def test_readme_counts(self, suite_results):
        # the README states how many checks `noisylab oracle all` runs and
        # how many keys a config has
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                  encoding="utf-8") as fh:
            readme = fh.read()
        assert "runs %d checks" % len(suite_results[1]) in readme
        assert "(%d keys)" % sum(len(keys) for keys in config.SCHEMA.values()) in readme

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            oracles.run_suite("bogus")

    def test_check_line_format(self):
        res = oracles.CheckResult("demo", 1e-3, 1e-5, True)
        assert res.line().startswith("[PASS]")
        assert "demo" in res.line()
