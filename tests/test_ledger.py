"""The measurement ledger: every BENCH_<label>.json at the repository root
parses, names its own label and records the environment it was measured in."""

import glob
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
LEDGER = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def test_ledger_is_not_empty():
    assert LEDGER


@pytest.mark.parametrize("path", LEDGER, ids=[os.path.basename(p) for p in LEDGER])
def test_bench_file_is_well_formed(path):
    name = os.path.basename(path)
    with open(path, encoding="utf-8") as fh:
        entry = json.load(fh)
    assert isinstance(entry, dict), name
    assert entry.get("label") == name[len("BENCH_"):-len(".json")], name
    assert entry.get("environment"), name
