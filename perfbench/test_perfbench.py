"""Tests of the benchmark's own checks and tracer (not of curv4 itself)."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
from run import ROOT, WORKLOADS

FIXTURES = Path(__file__).parent / "fixtures"


def seed_report(workload):
    """The workload's report at the commit that defined the benchmark."""
    return json.loads((FIXTURES / (workload + ".json")).read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_check_accepts_seed_report(workload):
    assert WORKLOADS[workload][1](seed_report(workload)) == []


def _morse_index_one(rep):
    rep["morse_index"] = 1


def _failing_identity(rep):
    rep["identities"][0]["pass"] = False
    rep["failures"] = [rep["identities"][0]["identity"]]


def _volume_off(rep):
    rep["volume"] *= 1.01


def _cell_volume_off(rep):
    rep["cells"][3]["volume"] *= 1.01


@pytest.mark.parametrize("workload, doctor", [
    ("index-form", _morse_index_one),
    ("identity-suite", _failing_identity),
    ("pointwise-scan", _volume_off),
    ("family-sweep", _cell_volume_off),
])
def test_check_rejects_doctored_report(workload, doctor):
    rep = copy.deepcopy(seed_report(workload))
    doctor(rep)
    assert WORKLOADS[workload][1](rep) != []


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, 7],
             ["c", 2.0, 3.0, 1, None], ["b", 5.0, 6.0, 0, 3]]
    by, root = tracer.summarize(spans)
    assert root == 10.0
    assert by["a"]["self_s"] == 6.0
    assert by["b"] == {"calls": 2, "self_s": 3.0, "sizes": [7, 3]}
    assert tracer.ancestor_calls(spans, "c", "a") == 1
    assert tracer.ancestor_calls(spans, "b", "c") == 0


def test_tracer_sees_calls_through_imported_names(tmp_path):
    # surfaces imports curvature_from_arrays by name, so patching only the
    # curvature module would miss the call made while building geometry
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, tracer.__file__, str(spans_path), "--",
         "surface", "--metric", "product(a=1,b=1)",
         "--surface", "perturbed-slice(c=0.15)", "--quad", "8",
         "--out", str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    assert tracer.ancestor_calls(
        spans, "curvature.frame", "surfaces.geometry") > 0
