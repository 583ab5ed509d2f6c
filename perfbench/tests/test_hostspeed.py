"""Host-speed scaling arithmetic (perfbench/hostspeed.py).

    python3 -m pytest perfbench/tests
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import hostspeed  # noqa: E402

N = hostspeed.NOMINAL_S


def test_nominal_speed_leaves_times_as_measured_minus_the_kernel():
    out = hostspeed.scale_run([1.0, 2.0], [(0.1, N), (0.2, N)], run_s=3.5,
                              factor_without_ref=9.0)
    assert out["epoch_s"] == pytest.approx([0.9, 1.8])
    # 0.5 s outside the epochs, scaled by 1
    assert out["run_s"] == pytest.approx(0.9 + 1.8 + 0.5)
    assert out["factor"] == pytest.approx(1.0)


def test_epoch_is_scaled_by_the_kernel_at_its_start_and_the_next_start():
    out = hostspeed.scale_run([1.0, 1.0, 1.0], [(0.0, N), (0.0, 3 * N), (0.0, 2 * N)],
                              run_s=4.0, factor_without_ref=9.0)
    assert out["epoch_s"] == pytest.approx([1 / 2, 1 / 2.5, 1 / 2])
    # the median kernel time is 2 N: the 1 s outside the epochs counts as 0.5 s
    assert out["factor"] == pytest.approx(0.5)
    assert out["run_s"] == pytest.approx(1 / 2 + 1 / 2.5 + 1 / 2 + 0.5)


def test_without_epoch_references_every_time_takes_the_fallback_factor():
    out = hostspeed.scale_run([1.0, 2.0], None, run_s=4.0, factor_without_ref=0.5)
    assert out == {"epoch_s": [0.5, 1.0], "run_s": 2.0, "factor": 0.5}


def test_measure_returns_a_positive_median():
    assert 0.0 < hostspeed.measure(0.01) < 0.01
    assert 0.0 < hostspeed.measure_calls(3)
