"""Tracer arithmetic and patching on toy modules, and the benchmark's
declared metrics against BENCHMARK.json.

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys
import types

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

CORE = """
def leaf():
    return 1

def outer():
    return leaf() + leaf()

def _private():
    return leaf()

class Thing:
    def __init__(self):
        self.v = leaf()
"""

USER = """
def use():
    return leaf() * 10
"""


class TickClock:
    """Each reading is one tick later than the one before."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1
        return float(self.now - 1)


def toy_modules():
    core = types.ModuleType("toy.core")
    exec(CORE, core.__dict__)
    user = types.ModuleType("toy.user")
    user.leaf = core.leaf  # as `from toy.core import leaf` would bind it
    exec(USER, user.__dict__)
    return core, user


def traced(**install_kwargs):
    core, user = toy_modules()
    tracer = Tracer(clock=TickClock())
    patched = tracer.install([core, user], **install_kwargs)
    return tracer, patched, core, user


def test_self_time_is_duration_minus_children():
    tracer, _, core, _ = traced()
    assert core.outer() == 2
    # outer opens at 0, leaf spans 1-2 and 3-4, outer closes at 5
    assert tracer.summary() == {"core.outer": {"calls": 1, "self_s": 3.0},
                                "core.leaf": {"calls": 2, "self_s": 2.0}}
    assert list(tracer.parent) == [-1, 0, 0]


def test_every_namespace_holding_the_function_is_patched():
    tracer, patched, _, user = traced()
    assert patched["core.leaf"] == 2
    assert user.use() == 10
    assert tracer.summary() == {"user.use": {"calls": 1, "self_s": 2.0},
                                "core.leaf": {"calls": 1, "self_s": 1.0}}


def test_constructor_and_renamed_private_function():
    tracer, _, core, _ = traced(rename={"core._private": "core.eval"})
    assert core.Thing().v == 1
    assert core._private() == 1
    summary = tracer.summary()
    assert summary["core.Thing"] == {"calls": 1, "self_s": 2.0}
    assert summary["core.eval"] == {"calls": 1, "self_s": 2.0}
    assert summary["core.leaf"]["calls"] == 2


def test_folded_span_counts_its_callees_as_self_time():
    tracer, _, core, _ = traced(fold={"core.outer"})
    assert core.outer() == 2
    core.leaf()
    assert tracer.summary() == {"core.outer": {"calls": 1, "self_s": 1.0},
                                "core.leaf": {"calls": 1, "self_s": 1.0}}


def test_span_left_open_by_a_callee_ends_with_its_caller():
    tracer = Tracer(clock=TickClock())
    caller = tracer.wrap(lambda: tracer.open("tail", fold=True), "caller")
    caller()
    tracer.stop()  # raises if a span were still open
    # caller opens at 0, tail at 1, both end at 2
    assert tracer.summary() == {"caller": {"calls": 1, "self_s": 1.0},
                                "tail": {"calls": 1, "self_s": 1.0}}


def test_stop_passes_calls_through_and_rejects_open_spans():
    tracer, _, core, _ = traced()
    tracer.open("dangling")
    with pytest.raises(RuntimeError):
        tracer.stop()
    tracer.close(0)
    tracer.stop()
    assert core.outer() == 2
    assert len(tracer.start) == 1


def test_declared_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER


def test_set_keys_replaces_and_appends():
    text = "[run]\nseed = 1  # note\n\n[trainer]\nepochs = 40\n"
    out = run.set_keys(text, {"run": {"seed": "7"}, "trainer": {"batch_size": "256"},
                              "net": {"hidden": "8"}})
    assert out == ("[run]\nseed = 7\n\n[trainer]\nepochs = 40\nbatch_size = 256\n"
                   "[net]\nhidden = 8\n")
