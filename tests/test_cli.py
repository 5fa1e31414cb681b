import json
import subprocess
import sys

import numpy as np
import pytest

from curv4 import cli, curvature
from curv4.cli import main

RUN = [sys.executable, "-m", "curv4.cli"]


def run_cli(args, **kw):
    return subprocess.run(RUN + args, capture_output=True, text=True, **kw)


def test_analyze_product(tmp_path):
    out = tmp_path / "rep.json"
    csvp = tmp_path / "pts.csv"
    code = main(["analyze", "--metric", "product(a=1,b=1)", "--grid", "3",
                 "--no-sectional", "--out", str(out), "--csv", str(csvp)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert abs(rep["conditions"]["margins"]["s6_minus_wplus"]) < 1e-6
    assert abs(rep["volume"] - 16 * np.pi ** 2) / (16 * np.pi ** 2) < 1e-3
    assert 0.0 <= rep["volume_error"] < 1e-12 * rep["volume"]
    rows = csvp.read_text().strip().splitlines()
    assert len(rows) - 1 == rep["conditions"]["npoints"]


def test_analyze_round_sphere(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["analyze", "--metric", "round4(r=1)", "--grid", "3",
                 "--no-sectional", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert abs(rep["conditions"]["margins"]["s6_minus_wplus"] - 2.0) < 1e-8


def test_analyze_sectional_is_exact_and_seed_free(tmp_path):
    reps, rows = {}, {}
    for seed in (1, 2):
        out = tmp_path / ("%d.json" % seed)
        csvp = tmp_path / ("%d.csv" % seed)
        assert main(["analyze", "--metric", "twisted(t=0.5,eps=0.05)",
                     "--grid", "3", "--seed", str(seed),
                     "--out", str(out), "--csv", str(csvp)]) == 0
        reps[seed] = json.loads(out.read_text())
        rows[seed] = csvp.read_bytes()
        assert reps[seed]["config"].pop("seed") == seed
        assert reps[seed].pop("csv")["path"] == str(csvp)
    assert reps[1] == reps[2]
    assert rows[1] == rows[2]
    # the certificate: primal minus dual over all points
    assert 0.0 <= reps[1]["conditions"]["sectional_gap"] <= 1e-9
    out = tmp_path / "nosec.json"
    assert main(["analyze", "--metric", "twisted(t=0.5,eps=0.05)",
                 "--grid", "3", "--no-sectional", "--out", str(out)]) == 0
    assert "sectional_gap" not in json.loads(out.read_text())["conditions"]


def test_exit_code_parse_error():
    proc = run_cli(["analyze", "--metric", "nonsense(r=1)"])
    assert proc.returncode == 2
    assert "parse error" in proc.stderr


@pytest.mark.parametrize("args, names", [
    (["analyze", "--metric", "round4(radius=2)"], "'radius=2'"),
    (["analyze", "--metric", "twisted(t=0.5,eps=0.05,phi=height-product)"],
     "'phi=height-product'"),
    (["surface", "--metric", "fs", "--surface", "slice(factor=3)"],
     "factor must be 1 or 2"),
    (["analyze", "--metric", "flat", "--quad", "4"], "--quad"),
    (["analyze", "--metric", "flat", "--grid", "0"], "--grid"),
    (["surface", "--metric", "fs", "--surface", "cp1-line",
      "--L0", "6", "--L-max", "6"], "--L-max"),
    (["surface", "--metric", "fs", "--surface", "cp1-line",
      "--L0", "-2", "--L-max", "2"], "--L0"),
    (["scan-family", "--t-values", "0:1"], "'0:1'"),
    (["scan-family", "--t-values", "abc"], "'abc'"),
    (["scan-family", "--t-values", "0:1:0"], "'0:1:0'"),
    (["verify-identities", "--sections", "0"], "--sections"),
    (["scan-family", "--t-values", "0.5", "--eps-values", "nan,inf"],
     "'nan,inf'"),
    (["scan-family", "--t-values", "nan"], "'nan'"),
    (["verify-identities", "--tol", "inf"], "--tol"),
    (["verify-identities", "--tol", "-1"], "--tol"),
    (["verify-identities", "--tol", "nan"], "--tol"),
    # literals that overflow to inf are malformed, not numbers
    (["analyze", "--metric", "round4(r=1e400)"], "'r=1e400'"),
    (["surface", "--metric", "product(a=1,b=1)",
      "--surface", "slice(factor=1,point=(1e400,0))"], "'point=(1e400,0)'"),
    (["verify-identities", "--seed", "-1", "--sections", "1", "--quad", "8"],
     "--seed"),
], ids=["unknown-key", "removed-phi-key", "surface-rejects-value",
        "quad-below-8", "grid-below-3", "L0-not-below-L-max",
        "negative-L0", "range-without-count", "values-not-numbers",
        "empty-range", "no-sections", "non-finite-eps-values",
        "non-finite-t-value", "infinite-tol", "negative-tol", "nan-tol",
        "non-finite-number", "non-finite-pair", "negative-seed"])
def test_exit_code_invalid_input(args, names):
    # typed: a one-line parse error naming the offending input, no traceback
    proc = run_cli(args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("parse error: ")
    assert names in proc.stderr


@pytest.mark.parametrize("args", [
    ["analyze", "--metric", "flat", "--tol", "2"],
    ["scan-family", "--tol", "2"],
    ["surface", "--metric", "fs", "--surface", "cp1-line", "--grid", "1"],
    ["surface", "--metric", "fs", "--surface", "cp1-line", "--tol", "2"],
    ["verify-identities", "--grid", "3"],
])
def test_subcommands_reject_options_they_do_not_read(args, capsys):
    assert main(args) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_exit_code_construction_error():
    # a finite radius whose metric components overflow is a construction
    # failure, caught before the eigenvalue check
    for spec in ("twisted(t=0.2,eps=99)", "product(a=1e200,b=1)"):
        proc = run_cli(["analyze", "--metric", spec])
        assert proc.returncode == 3, spec
        assert "construction error" in proc.stderr


def test_exit_code_surface_in_foreign_atlas():
    # the slice lies in the product charts aa/ba, which CP^2 does not have
    proc = run_cli(["surface", "--metric", "fs", "--surface", "slice",
                    "--quad", "8"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error: ")
    assert "'aa'" in proc.stderr


@pytest.mark.parametrize("surface", ["perturbed-slice(c=1e200)",
                                     "slice(point=(5,0))"])
def test_exit_code_surface_outside_its_chart_domain(surface):
    # immersed nodes outside chart aa's factor radius are a typed error
    proc = run_cli(["surface", "--metric", "product", "--surface", surface,
                    "--quad", "8"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error: surface ")
    assert "outside chart 'aa'" in proc.stderr


def test_verify_identities_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify-identities", "--seed", "42", "--quad", "16",
                 "--sections", "2", "--out", str(a)]) == 0
    assert main(["verify-identities", "--seed", "42", "--quad", "16",
                 "--sections", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rep = json.loads(a.read_text())
    assert rep["failures"] == []
    assert all(r["pass"] for r in rep["identities"])


def test_identity_suite_reads_one_curvature_batch_per_chart(monkeypatch):
    # the pointwise block of the five metrics (1 + 2 + 4 + 4 + 3 charts)
    # runs until the first 2-form Weitzenboeck check, which stops the suite
    class Stop(Exception):
        pass

    def stop(*args):
        raise Stop

    calls = {"curvature_from_arrays": 0, "riemann_at": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(curvature, "curvature_from_arrays", counting(
        "curvature_from_arrays", curvature.curvature_from_arrays))
    at = counting("riemann_at", curvature.riemann_at)
    for mod in (curvature, cli):
        monkeypatch.setattr(mod, "riemann_at", at, raising=False)
    monkeypatch.setattr(cli, "weitzenboeck_residual", stop)
    with pytest.raises(Stop):
        cli.run_identity_suite(quad_n=8, n_sections=1)
    assert calls == {"curvature_from_arrays": 14, "riemann_at": 0}


def test_identity_suite_checks_weitzenboeck_once_per_form(monkeypatch):
    # 3 polynomial forms on flat space and on round4, those and the Kaehler
    # form on the product: 10 batches of 5 points, each with one curvature
    # record and so one Christoffel evaluation; the surface block that
    # follows stops the suite
    class Stop(Exception):
        pass

    def stop(*args):
        raise Stop

    counts = {"christoffel_derivatives": 0, "curvature_from_arrays": 0}

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    for name in counts:
        monkeypatch.setattr(curvature, name,
                            counting(name, getattr(curvature, name)))
    calls = []
    weitzenboeck = cli.weitzenboeck_residual

    def recording(m, alpha, chart, pts):
        before = dict(counts)
        out = weitzenboeck(m, alpha, chart, pts)
        calls.append((np.shape(pts), {k: counts[k] - before[k]
                                      for k in counts}))
        return out

    monkeypatch.setattr(cli, "weitzenboeck_residual", recording)
    monkeypatch.setattr(cli, "surface_geometry", stop)
    with pytest.raises(Stop):
        cli.run_identity_suite(quad_n=8, n_sections=1)
    assert calls == [((5, 4), {"christoffel_derivatives": 1,
                               "curvature_from_arrays": 1})] * 10


def test_verify_identities_tolerance_override(tmp_path):
    out = tmp_path / "strict.json"
    code = main(["verify-identities", "--seed", "1", "--quad", "16",
                 "--sections", "1", "--tol", "1e-12", "--out", str(out)])
    # quadrature-limited identities must now fail, with named offenders
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["failures"]


def test_surface_command(tmp_path):
    out = tmp_path / "surf.json"
    code = main(["surface", "--metric", "product(a=1,b=1)",
                 "--surface", "slice(factor=1)", "--quad", "24",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert abs(rep["c1"]) < 1e-3
    assert rep["morse_index"] == 0
    assert abs(rep["averaged_second_variation"]["lhs"]) < 1e-6
    # numerical health: the history ends on the reported level, and the
    # mass matrix keeps every direction of the frame basis
    hist = rep["refinement_history"]
    assert hist[-1] == [rep["L_used"], rep["morse_index"], rep["nullity"]]
    assert [h[0] for h in hist] == list(range(2, rep["L_used"] + 1, 2))
    assert rep["basis_dim"] == 2 * (rep["L_used"] + 1) ** 2
    assert rep["mass_rank"] == rep["basis_dim"]


def test_surface_nonminimal_warning(tmp_path):
    out = tmp_path / "surf.json"
    code = main(["surface", "--metric", "product(a=1,b=1)",
                 "--surface", "perturbed-slice(c=0.15)", "--quad", "16",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert "warning" in rep
    assert "morse_index" not in rep


def test_scan_family_small(tmp_path):
    out = tmp_path / "fam.json"
    csvp = tmp_path / "fam.csv"
    code = main(["scan-family", "--t-values", "0,1", "--grid", "3",
                 "--quad", "16", "--out", str(out), "--csv", str(csvp)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert len(rep["cells"]) == 4
    for cell in rep["cells"]:
        assert "error" not in cell
        assert abs(cell["volume"] - 16 * np.pi ** 2) / (16 * np.pi ** 2) < 1e-3
        assert 0.0 <= cell["volume_error"] < 1e-12 * cell["volume"]
        assert cell["margins"]["s6_minus_wplus"] >= -1e-6
    rows = csvp.read_text().strip().splitlines()
    assert len(rows) == 5


def test_scan_family_computes_pd_bound_once(tmp_path):
    # the positivity search must be capped by the bound the report prints,
    # not compute a second bound on another grid
    from curv4 import metrics
    metrics._eps_max.cache_clear()
    assert main(["scan-family", "--t-values", "0.5",
                 "--grid", "3", "--quad", "16",
                 "--out", str(tmp_path / "fam.json")]) == 0
    assert metrics._eps_max.cache_info().misses == 1


def test_version_flag():
    proc = run_cli(["--version"])
    assert proc.returncode == 0
