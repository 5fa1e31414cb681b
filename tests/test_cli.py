import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from curv4 import cli, curvature
from curv4.cli import main
from curv4.metrics import (
    QuadSpec, fubini_study, product_spheres, round_sphere4,
    sphere_chart_nodes,
)
from curv4.surfaces import (
    NormalSection, averaged_second_variation, chart_integrals, cp1_line,
    dbar_sq, embedding_family, equator_sphere, lemma310_integrals,
    perturbed_slice, sum_charts, surface_geometry,
)
from oracles import surface_identities_all_charts

RUN = [sys.executable, "-m", "curv4.cli"]
# the child imports the curv4 that this process imported, also when
# PYTHONPATH is not set (pytest's own pythonpath setting)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(cli.__file__).resolve().parents[1]),
    os.environ.get("PYTHONPATH")])))


def run_cli(args, **kw):
    return subprocess.run(RUN + args, capture_output=True, text=True,
                          env=ENV, **kw)


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


def test_analyze_csv_cells_are_plain_floats(tmp_path):
    # the coordinates are numpy scalars; their cells read as floats, like
    # the margin columns, not as np.float64(...)
    out, csvp = tmp_path / "rep.json", tmp_path / "pts.csv"
    assert main(["analyze", "--metric", "twisted(t=0.5,eps=0.05)",
                 "--grid", "3", "--no-sectional", "--out", str(out),
                 "--csv", str(csvp)]) == 0
    rows = csvp.read_text().strip().splitlines()[1:]
    assert len(rows) == json.loads(out.read_text())["csv"]["rows"]
    for row in rows:
        for cell in row.split(",")[1:]:
            float(cell)


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
    # three levels L0, L0 + 2, L0 + 4 are needed before the index can repeat
    (["surface", "--metric", "fs", "--surface", "cp1-line",
      "--L0", "8", "--L-max", "10"], "--L-max"),
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
    # the sphere rule of 8 nodes resolves degrees up to 7, not L0 + 4 = 8
    (["surface", "--metric", "round4", "--surface", "equator4",
      "--quad", "8", "--L0", "4"], "--quad"),
], ids=["unknown-key", "removed-phi-key", "surface-rejects-value",
        "quad-below-8", "grid-below-3", "L0-not-below-L-max",
        "negative-L0", "L-max-below-L0-plus-4", "range-without-count",
        "values-not-numbers",
        "empty-range", "no-sections", "non-finite-eps-values",
        "non-finite-t-value", "infinite-tol", "negative-tol", "nan-tol",
        "non-finite-number", "non-finite-pair", "negative-seed",
        "L0-plus-4-above-quad-minus-1"])
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
    # failure, caught before the eigenvalue check; one whose square
    # underflows fails the eigenvalue check; a t outside [0, 1] is reported
    # by the twisted family, not by a builder it calls, in analyze and in
    # scan-family alike
    for args in (["analyze", "--metric", "twisted(t=0.2,eps=99)"],
                 ["analyze", "--metric", "product(a=1e200,b=1)"],
                 ["analyze", "--metric", "round4(r=1e-200)"],
                 ["analyze", "--metric", "twisted(t=1.5,eps=0)"],
                 ["scan-family", "--t-values", "1.5"]):
        proc = run_cli(args)
        assert proc.returncode == 3, args
        assert "construction error" in proc.stderr
        assert "ht_metric" not in proc.stderr
        if "1.5" in args[-1]:
            assert "twisted_metric: t=1.5" in proc.stderr, args
        elif "r=1e-200" in args[-1]:
            assert "metric not positive definite" in proc.stderr


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


@pytest.mark.parametrize("args, flag", [
    (["analyze", "--metric", "flat", "--grid", "3", "--no-sectional"], "--out"),
    (["scan-family", "--t-values", "0.5", "--grid", "3", "--quad", "8"],
     "--csv")], ids=["analyze-out", "scan-family-csv"])
def test_exit_code_unwritable_output(tmp_path, args, flag):
    # an output path in a directory that does not exist is a typed error
    path = str(tmp_path / "missing" / "x")
    proc = run_cli(args + [flag, path])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error: cannot write %s: " % path)


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
    surface = ["surface", "--metric", "fs", "--surface", "cp1-line",
               "--quad", "8"]
    assert main(surface + ["--out", str(a)]) == 0
    assert main(surface + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


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


@pytest.mark.parametrize("S, m, minimal", [
    (cp1_line(), fubini_study(), True),
    (equator_sphere(), round_sphere4(1.0), True),
    (perturbed_slice(0.15), product_spheres(1.0, 1.0), False),
], ids=["cp1-line-fs", "equator4-round4", "perturbed-slice-product"])
def test_identity_rows_in_one_batch_match_section_loop(S, m, minimal,
                                                       monkeypatch):
    # the batched surface rows against one section at a time, with the
    # random coefficients drawn one section at a time as well
    geom = surface_geometry(S, m, QuadSpec(16))
    calls = []
    real = cli.section_data
    monkeypatch.setattr(cli, "section_data",
                        lambda cg, sig: calls.append(cg.chart)
                        or real(cg, sig))
    rows = {}
    rng = np.random.default_rng(3)
    cli._surface_identities(geom, minimal, rng, 4,
                            lambda name, ctx, res, tol: rows.update(
                                {name: res}))
    assert len(calls) == 2 * len(geom.charts)

    ref = np.random.default_rng(3)
    l310, dbar_rot, t318 = 0.0, 0.0, 0.0
    for _ in range(4):
        sig = NormalSection(embedding_family,
                            ref.uniform(-0.6, 0.6, (S.n_directions, 4)))
        data = [real(cg, sig) for cg in geom.charts]
        ints = sum_charts(chart_integrals(cg, d)
                          for cg, d in zip(geom.charts, data))
        l310 = max(l310, lemma310_integrals(ints)["residual"])
        for cg, d in zip(geom.charts, data):
            dj = real(cg, sig.rotated())
            dbar_rot = max(dbar_rot,
                           np.abs(dbar_sq(d, 0.0) - dbar_sq(d, 0.785)).max(),
                           np.abs(dj["grad2"] - d["grad2"]).max(),
                           np.abs(dj["norm2"] - d["norm2"]).max())
        if minimal:
            t318 = max(t318, averaged_second_variation(ints)["residual"])
    assert rng.uniform() == ref.uniform()
    assert abs(rows["lemma-3-10"] - l310) <= 1e-12
    assert abs(rows["dbar-frame-independence"] - dbar_rot) <= 1e-12
    if minimal:
        assert abs(rows["averaged-second-variation"] - t318) <= 1e-12
    else:
        assert "averaged-second-variation" not in rows


@pytest.mark.parametrize("seed", [1, 2])
def test_streamed_identity_rows_equal_all_charts_route(seed, monkeypatch):
    # the chart-by-chart rows are those of the route that holds every
    # chart's section data at once, to the last bit
    streamed = cli.run_identity_suite(seed=seed, quad_n=16)
    monkeypatch.setattr(cli, "_surface_identities",
                        surface_identities_all_charts)
    assert streamed == cli.run_identity_suite(seed=seed, quad_n=16)


def test_identity_suite_memory_is_bounded():
    # tracemalloc sees numpy's buffers.  Each section adds at most three
    # times one chart's section data (eight float arrays over its nodes)
    # to the peak: one chart is read at a time and reduced to its
    # integrals.  At quad 16 (256 nodes a chart) the slope reads 0.63 of
    # that bound (numpy 2.4.6); holding both charts' data and J sigma's
    # beside it read 2.17.
    cli.run_identity_suite(quad_n=16, n_sections=10)
    peaks = []
    for n in (10, 40):
        tracemalloc.start()
        try:
            cli.run_identity_suite(quad_n=16, n_sections=n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    nodes = sum(len(u) for _, u, _ in sphere_chart_nodes(16)) // 2
    assert (peaks[1] - peaks[0]) / 30 <= 3 * 8 * 8 * nodes


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
    # the Theorem-C margins on the homogeneous spheres: the projective line
    # in Fubini-Study (sectional curvature in [1, 4], a complex curve, so
    # the eta-pairing vanishes) and the totally geodesic equator of the
    # unit S^4, where s/6 - W+ = 2 on |eta|^2 = 2; and the index-two pair
    # sigma, sigma -+ J sigma of the near-holomorphic section, whose second
    # variations vanish on the projective line and are -2 and -4 on the
    # equator
    for metric, surface, pair in (("fs", "cp1-line", (0.0, 0.0)),
                                  ("round4", "equator4", (-2.0, -4.0))):
        assert main(["surface", "--metric", metric, "--surface", surface,
                     "--quad", "8", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        np.testing.assert_allclose(rep["index_two"]["d2_pair"], pair,
                                   rtol=0, atol=1e-12)
        assert rep["index_two"]["unstable_pair"] is (pair[1] < 0)
        tc = rep["theorem_c"]
        assert tc["shear_max"] == 0.0
        assert abs(tc["min_sectional"] - 1.0) <= 1e-12
        assert tc["hypotheses_hold"] is True
        if surface == "cp1-line":
            assert abs(tc["pairing_min"]) <= 1e-12
        else:
            assert abs(tc["pairing_min"] - 4.0) <= 1e-10


def test_surface_refines_only_resolved_levels(monkeypatch, capsys):
    # a sphere rule of quad nodes per axis resolves degrees up to quad - 1:
    # at --quad 8 the refinement stops at 7, below --L-max 12, and an index
    # that has not repeated by then exits 1 naming that degree
    real = cli.refine_until_stable
    levels = []

    def unsettled(op, L0, L_max):
        def moving(L):
            levels.append(L)
            form = op(L)
            form.morse_index = L
            return form
        return real(moving, L0=L0, L_max=L_max)

    monkeypatch.setattr(cli, "refine_until_stable", unsettled)
    assert main(["surface", "--metric", "fs", "--surface", "cp1-line",
                 "--quad", "8", "--L-max", "12"]) == 1
    assert levels == [2, 4, 6]
    assert "did not stabilize by L = 7" in capsys.readouterr().err


def test_surface_nonminimal_warning(tmp_path):
    out = tmp_path / "surf.json"
    code = main(["surface", "--metric", "product(a=1,b=1)",
                 "--surface", "perturbed-slice(c=0.15)", "--quad", "16",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert "warning" in rep
    assert "morse_index" not in rep
    assert "theorem_c" not in rep


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
