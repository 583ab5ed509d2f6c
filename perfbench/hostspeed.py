"""Host speed: a fixed reference kernel timed next to the measured work.

The benchmark's host is a shared VM whose speed drifts by tens of percent,
in spells of seconds to minutes, whatever the program does. Wall times of one
code version therefore spread across invocations by more than the bounds a
later change is judged by. The drift is common to all CPU-bound work on one
CPU, so run.py pins itself and its workers to one CPU and times this kernel
next to the work:

- at the start of every training epoch, inside the worker (worker.py);
- right before and right after every set-up process, in run.py.

Every timing is then reported at the reference speed,

    reported = measured seconds * NOMINAL_S / kernel seconds measured alongside,

so on a host that runs the kernel in NOMINAL_S the reported time is the wall
time. The kernel does not touch noisylab: a change to the program moves the
reported times exactly as it moves the wall times.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

# Median kernel time on the reference host (2-vCPU x86-64 VM, Xeon 2.1 GHz,
# Python 3.11.7, numpy 2.4.6, one BLAS thread).
NOMINAL_S = 0.27e-3
WINDOW_S = 0.1       # one measurement between processes repeats the kernel this long
EPOCH_CALLS = 24     # kernel calls timed at the start of every epoch

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((32, 16))
_W1 = _rng.standard_normal((16, 64)) * 0.25
_W2 = _rng.standard_normal((64, 4)) * 0.25
_Y = _rng.integers(0, 4, size=32)
_ROWS = np.arange(32)


def kernel() -> float:
    """Four SGD steps of a tiny MLP in numpy plus a Python loop: the mix of
    small-array calls and interpreter work of a noisylab training step."""
    w1, w2 = _W1.copy(), _W2.copy()
    total = 0.0
    for _ in range(4):
        h = np.maximum(_X @ w1, 0.0)
        z = h @ w2
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        g = p.copy()
        g[_ROWS, _Y] -= 1.0
        gh = (g @ w2.T) * (h > 0)
        w2 -= 0.01 * (h.T @ g)
        w1 -= 0.01 * (_X.T @ gh)
        total += float(-np.log(p[_ROWS, _Y] + 1e-12).mean())
    for i in range(400):
        total += (i * i) % 7
    return total


def measure(window_s: float = WINDOW_S) -> float:
    """Median seconds per kernel call over `window_s` of repeats."""
    samples = []
    end = time.perf_counter() + window_s
    while True:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        samples.append(t1 - t0)
        if t1 >= end:
            return statistics.median(samples)


def measure_calls(n: int = EPOCH_CALLS) -> float:
    """Median seconds per kernel call over `n` calls."""
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def pin_to_one_cpu() -> int:
    """Bind this process (and the workers it starts) to one allowed CPU, so
    the kernel and the work it calibrates share that CPU's speed."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def scale_run(epoch_s: list, epoch_ref: list | None, run_s: float,
              factor_without_ref: float) -> dict:
    """A training run's times at the reference speed.

    `epoch_ref` holds one (seconds spent, kernel median) pair per epoch, the
    kernel timed at the epoch's start inside its wall time. Epoch e is scaled
    by the mean of the kernel medians at its start and at the next epoch's
    start; the time outside epochs (network set-up, first and final
    evaluation, artifacts) by the run's median kernel time. Without
    `epoch_ref` every time is scaled by `factor_without_ref`.
    """
    if not epoch_ref:
        return {"epoch_s": [e * factor_without_ref for e in epoch_s],
                "run_s": run_s * factor_without_ref, "factor": factor_without_ref}
    meds = [med for _, med in epoch_ref]
    epochs = [(wall - spent) * NOMINAL_S / statistics.mean(meds[e:e + 2])
              for e, (wall, (spent, _)) in enumerate(zip(epoch_s, epoch_ref))]
    factor = NOMINAL_S / statistics.median(meds)
    outside = run_s - sum(epoch_s)
    return {"epoch_s": epochs, "run_s": sum(epochs) + outside * factor, "factor": factor}
