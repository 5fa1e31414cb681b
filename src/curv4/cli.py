"""Command-line front end: metric/surface scans, identity suites, reports.

Reports are JSON with floats serialized by repr (shortest round-trip), so a
fixed seed and configuration produce byte-identical output; wall-clock
timing goes to stderr only.

The ``surface`` report gives area, minimality residual and c1 of any
sphere.  A minimal one adds its index, the averaged second variation of the
near-holomorphic section sigma with its ``index_two`` pair sigma, sigma
-+ J sigma (unstable when the average is negative) and a ``theorem_c``
block with the hypothesis margins of Theorem C
(``stability.theorem_c_margins``); a non-minimal one gets a warning in
their place.  The index is refined up to degree min(--L-max, --quad - 1):
at L = quad the sphere rule no longer resolves the index form.
``index_by_charge`` names the unstable and null modes: one entry
{"charges": [ka, kb], "index": i, "nullity": z} per S^1 charge block of
the index form with a negative or null direction, [ka, kb] the
lexicographically larger of +-(kappa_a, kappa_b), each in (-quad, quad],
where kappa_a and kappa_b are the charges under the rotation of charts a
and b (``stability``); the entries sum to ``morse_index`` and
``nullity``.

Exit codes: 0 success; 1 identity violation or another curv4 error, e.g. a
surface that lies in a chart the metric's atlas does not have, or whose
immersed nodes leave that chart's domain, an index that does not stabilize
by min(--L-max, --quad - 1), or an --out or --csv path that cannot be
written; 2 parse error: an unknown flag, a malformed metric or surface spec
(the grammar of ``metrics.parse_spec``), a value a surface constructor
rejects, a malformed --t-values or --eps-values list or one with a
non-finite entry, --grid below 3, --quad below 8, a negative --seed,
--sections below 1, --tol not finite and positive, --L0 below 0, --L-max
below --L0 + 4, or --L0 + 4 above --quad - 1; 3 metric construction
failure, e.g. |eps| above the twisted family's eps_max.  Spec, range,
construction and output-path errors print one line on stderr and no
traceback.
"""

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import __version__
from .bivector import PAIRS, bianchi_residual
from .curvature import (
    block_identity_residual, condition_check, curvature_batch, kaehler_form,
    kaehler_residuals, kaehler_scalar_curvature, lemma21_check,
    positivity_eps_max, weitzenboeck_residual,
)
from .errors import (Curv4Error, MetricConstructionError, OutputError,
                     SpecParseError)
from .metrics import (
    QuadSpec, flat_space, fubini_study, ht_metric, parse_metric_spec,
    product_spheres, round_sphere4, twisted_eps_max, twisted_metric,
    volume_estimate,
)
from .stability import (
    SectionBasis, assemble_index_form, near_holomorphic_section,
    refine_until_stable, theorem_c_margins,
)
from .surfaces import (
    a_wedge_a_sq, a_wedge_a_sq_expansion, averaged_second_variation,
    chart_integrals, chern_number, cp1_line, equator_sphere,
    lemma310_integrals, parse_surface_spec, perturbed_slice, product_slice,
    embedding_family, ric_perp_identity_residual, section_data, sum_charts,
    surface_geometry, weitzenboeck_variation, NormalSection, dbar_sq,
    kperp_extrinsic_field,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_CONSTRUCTION = 3


def _base_report(args, command):
    # output paths stay out of the echo: they do not change the results,
    # so such runs still give byte-identical reports
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("func", "out", "csv")}
    return {"tool": "curv4", "version": __version__, "command": command,
            "config": cfg}


def _open_output(path, **kwargs):
    try:
        return open(path, "w", **kwargs)
    except OSError as e:
        raise OutputError("cannot write %s: %s" % (path, e.strerror)) from None


def _write_report(report, out_path):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with _open_output(out_path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_values(spec):
    """'a:b:n' inclusive range or comma-separated list of floats; an
    empty list or a non-finite entry is malformed too."""
    try:
        if ":" in spec:
            lo, hi, n = spec.split(":")
            vals = list(np.linspace(float(lo), float(hi), int(n)))
        else:
            vals = [float(t) for t in spec.split(",") if t.strip()]
    except ValueError:
        vals = []
    if not vals or not np.all(np.isfinite(vals)):
        raise SpecParseError("malformed value list %r: expected 'a:b:n' with "
                             "n >= 1 or comma-separated finite numbers"
                             % spec)
    return vals


# ---------------------------------------------------------------- analyze

def cmd_analyze(args):
    m = parse_metric_spec(args.metric)
    conditions, records = condition_check(
        m, grid_n=args.grid, include_sectional=not args.no_sectional)
    report = _base_report(args, "analyze")
    report["metric"] = {"name": m.name, "params": m.params}
    report["conditions"] = conditions
    report["volume"], report["volume_error"] = volume_estimate(
        m, QuadSpec(args.quad))
    if m.is_kaehler:
        report["kaehler_residuals"] = kaehler_residuals(m)
    if args.csv:
        keys = sorted(records[0][1])
        n = args.grid ** 4
        with _open_output(args.csv, newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["chart", "x0", "x1", "x2", "x3"] + keys)
            for chart, out in records:
                pts = m.charts[chart].grid_point(args.grid, np.arange(n))
                for i in range(n):
                    w.writerow([chart] + [repr(float(v)) for v in pts[i]]
                               + [repr(float(out[k][i])) for k in keys])
        report["csv"] = {"path": args.csv, "rows": len(records) * n}
    _write_report(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------- scan

def cmd_scan_family(args):
    report = _base_report(args, "scan-family")
    tvals = _parse_values(args.t_values)
    auto_eps = args.eps_values == "auto"
    evals = None if auto_eps else _parse_values(args.eps_values)
    cells = []
    rows = []
    for t in tvals:
        pd_max = twisted_eps_max(t)
        # the first root of s on the orbit points, where s/6 - W+ stops being
        # PSD (the family is Kaehler), below the larger eigenvalue-floor bound
        pos_max = positivity_eps_max(t, grid_n=max(3, (args.grid // 2) | 1))
        if auto_eps:
            evals = [0.0, pos_max / 2.0]
        for eps in evals:
            cell = {"t": t, "eps": eps, "eps_max_pd": pd_max,
                    "eps_max_positivity": pos_max}
            try:
                m = twisted_metric(t, eps)
            except MetricConstructionError as exc:
                cell["error"] = str(exc)
                cells.append(cell)
                continue
            cell["margins"] = condition_check(
                m, grid_n=args.grid | 1, include_sectional=False)[0]["margins"]
            cell["volume"], cell["volume_error"] = volume_estimate(
                m, QuadSpec(args.quad))
            cells.append(cell)
            rows.append([t, eps, pd_max, pos_max, cell["volume"],
                         cell["margins"]["s6_minus_wplus"]])
    report["cells"] = cells
    if args.csv:
        with _open_output(args.csv, newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "eps", "eps_max_pd", "eps_max_positivity",
                        "volume", "s6_minus_wplus"])
            w.writerows([repr(float(v)) for v in row] for row in rows)
    _write_report(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------- identities

# the Hessians _MONO_H[l, k, q] = d_l d_k of the monomials q of the test
# 2-forms, (1, x0, x1 x3, x2^2, x0 x1)
_MONO_H = np.zeros((4, 4, 5))
_MONO_H[[1, 3, 2, 0, 1], [3, 1, 2, 1, 0], [2, 2, 3, 4, 4]] = [1, 1, 2, 1, 1]


def _poly_form(rng):
    """A random 2-form(chart, pts) -> (A, dA, d2A): each component alpha_ij,
    i < j in the order of PAIRS, combines the monomials with five normal
    draws."""
    a, (i, j) = rng.normal(size=30).reshape(6, 5).T, np.transpose(PAIRS)
    C = np.zeros((5, 4, 4))
    C[:, i, j], C[:, j, i] = a, -a

    def form(chart, pts):
        x0, x1, x2, x3 = pts.T
        mono = np.stack([np.ones(len(pts)), x0, x1 * x3, x2 * x2, x0 * x1], -1)
        dmono = np.tensordot(pts, _MONO_H, axes=1)
        dmono[:, 0, 1] = 1.0        # x.H misses the constant gradient of x0
        d2mono = np.broadcast_to(_MONO_H, (len(pts),) + _MONO_H.shape)
        return tuple(np.tensordot(c, C, axes=1) for c in (mono, dmono, d2mono))

    return form


def _chart_identities(cg, sig):
    """One chart's section integrals of sigma and its worst dbar-frame
    deviation; the chart's section data is dropped on return."""
    # J sigma evaluated on its own first: the second path of the check,
    # of which only the norms are kept
    dj = section_data(cg, sig.rotated())
    jgrad, jnorm = dj["grad2"], dj["norm2"]
    del dj
    d = section_data(cg, sig)
    worst = max(np.abs(dbar_sq(d, 0.0) - dbar_sq(d, 0.785)).max(),
                np.abs(jgrad - d["grad2"]).max(),
                np.abs(jnorm - d["norm2"]).max())
    return chart_integrals(cg, d), worst


def _surface_identities(geom, minimal, rng, n_sections, add):
    """The surface rows of the identity table for one SurfaceGeometry."""
    S = geom.S
    ctx = "%s@%s" % (S.name, geom.m.name)
    kx = max(np.abs(cg.kperp - kperp_extrinsic_field(cg)).max()
             for cg in geom.charts)
    add("kperp-cross-path", ctx, kx, 1e-5)
    add("ric-perp-eta-pairing", ctx,
        max(ric_perp_identity_residual(cg) for cg in geom.charts), 1e-5)
    # all random sections in one batch on W's trailing axis: per normal
    # direction, affine coefficients in the embedding functions
    b = rng.uniform(-0.6, 0.6, (n_sections, S.n_directions, 4))
    sig = NormalSection(embedding_family, np.moveaxis(b, 0, -1))
    # one chart at a time, so only one chart's section data is held
    per_chart = [_chart_identities(cg, sig) for cg in geom.charts]
    ints = sum_charts(ints for ints, _ in per_chart)
    add("lemma-3-10", ctx, lemma310_integrals(ints)["residual"].max(), 1e-5)
    add("dbar-frame-independence", ctx,
        max(worst for _, worst in per_chart), 1e-8)
    if minimal:
        add("averaged-second-variation", ctx,
            averaged_second_variation(ints)["residual"].max(), 1e-4)
    cn = chern_number(geom)
    add("chern-integrality", ctx, abs(cn - round(cn)), 1e-3)


def run_identity_suite(seed=42, quad_n=32, n_sections=5, tol_scale=1.0):
    """The full cross-module identity table; returns a list of records."""
    rng = np.random.default_rng(seed)
    quad = QuadSpec(quad_n)
    rows = []

    def add(name, context, residual, tol):
        rows.append({"identity": name, "context": context,
                     "residual": float(residual),
                     "tolerance": float(tol * tol_scale),
                     "pass": bool(residual <= tol * tol_scale)})

    metrics = [flat_space(), round_sphere4(1.0), product_spheres(1.0, 1.0),
               ht_metric(0.6), fubini_study()]
    # every pointwise identity reads one curvature batch per chart
    for m in metrics:
        bian, block, trace, lem21, spec_res, cor_res, ricci = (0.0,) * 7
        for chart, pts in m.sample_points(np.random.default_rng(seed), 6):
            c = curvature_batch(m, chart, pts)
            bian = max(bian, bianchi_residual(c["M6"]).max())
            block = max(block, block_identity_residual(c).max())
            trace = max(trace, (np.abs(np.einsum("...ii->...", c["wplus"]))
                                + np.abs(np.einsum("...ii->...", c["wminus"]))
                                ).max())
            for side in lemma21_check(c).values():
                lem21 = max(lem21, np.where(side["violated"],
                                            -side["consequent_margin"],
                                            0.0).max())
            if m.is_kaehler:
                lam = np.sort(np.linalg.eigvalsh(c["wplus"]), axis=-1)
                s = c["s"]
                expect = np.stack([-s / 12, -s / 12, s / 6], axis=-1)
                spec_res = max(spec_res, np.abs(lam - expect).max())
                lam2 = np.sort(np.linalg.eigvalsh(
                    s[:, None, None] / 6 * np.eye(3) - c["wplus"]), axis=-1)
                expect2 = np.stack([0 * s, s / 4, s / 4], axis=-1)
                cor_res = max(cor_res, np.abs(lam2 - expect2).max())
                # s by the Ricci potential, free of Christoffel symbols
                ricci = max(ricci, np.abs(kaehler_scalar_curvature(
                    m.coeffs, chart, pts)[0] - s).max())
        add("first-bianchi", m.name, bian, 1e-6)
        add("block-decomposition", m.name, block, 1e-6)
        add("weyl-traces", m.name, trace, 1e-8)
        add("eigenvalue-implication", m.name, lem21, 1e-9)
        if m.is_kaehler:
            add("kaehler-weyl-spectrum", m.name, spec_res, 1e-6)
            add("kaehler-s6-spectrum", m.name, cor_res, 1e-6)
            add("kaehler-ricci-potential", m.name, ricci, 1e-10)

    # Weitzenboeck on 2-forms, one batch of 5 points per form
    for m, chart in ((flat_space(), "e"), (round_sphere4(1.0), "n"),
                     (product_spheres(1.0, 1.0), "aa")):
        forms = [_poly_form(rng) for _ in range(3)]
        if m.is_kaehler:
            forms.append(kaehler_form(m))
        worst = max(weitzenboeck_residual(
            m, alpha, chart, rng.uniform(-0.8, 0.8, (5, 4)))[0].max()
            for alpha in forms)
        add("weitzenboeck-2form", m.name, worst, 1e-6)

    # surface identities
    surfaces = [
        (product_slice(), product_spheres(1.0, 1.0), True),
        (equator_sphere(), round_sphere4(1.0), True),
        (cp1_line(), fubini_study(), True),
        (perturbed_slice(0.15), product_spheres(1.0, 1.0), False),
    ]
    for S, m, minimal in surfaces:
        # the geometry is released when the call returns, before the next
        # surface's is built
        _surface_identities(surface_geometry(S, m, quad), minimal, rng,
                            n_sections, add)

    # synthetic shear algebra: 200 traceless A[..., s] = [[a, b], [b, -a]]
    a, b = np.moveaxis(rng.normal(size=(200, 2, 2)), -1, 0)
    A = np.stack([np.stack([a, b], 1), np.stack([b, -a], 1)], 1)
    worst = np.abs(a_wedge_a_sq(A) - a_wedge_a_sq_expansion(A)).max()
    add("shear-wedge-expansion", "synthetic", worst, 1e-12)
    return rows


def cmd_verify_identities(args):
    report = _base_report(args, "verify-identities")
    rows = run_identity_suite(seed=args.seed, quad_n=args.quad,
                              n_sections=args.sections,
                              tol_scale=args.tol)
    report["identities"] = rows
    failures = [r["identity"] for r in rows if not r["pass"]]
    report["failures"] = failures
    _write_report(report, args.out)
    if failures:
        print("identity violations: %s" % ", ".join(sorted(set(failures))),
              file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------- surface

def cmd_surface(args):
    m = parse_metric_spec(args.metric)
    S = parse_surface_spec(args.surface)
    geom = surface_geometry(S, m, QuadSpec(args.quad))
    report = _base_report(args, "surface")
    report["metric"] = {"name": m.name, "params": m.params}
    report["surface"] = {"name": S.name}
    report["area"] = geom.area()
    report["minimality_residual"] = geom.min_residual
    report["c1"] = chern_number(geom)
    if not geom.is_minimal():
        report["warning"] = ("surface is not minimal: stability analysis "
                             "skipped")
        _write_report(report, args.out)
        return EXIT_OK
    out = refine_until_stable(
        lambda L: assemble_index_form(geom, SectionBasis(S, L)),
        L0=args.L0, L_max=min(args.L_max, args.quad - 1))
    form = out["form"]
    report["morse_index"] = out["morse_index"]
    report["nullity"] = out["nullity"]
    report["L_used"] = out["L_used"]
    report["refinement_history"] = [list(h) for h in out["history"]]
    report["index_by_charge"] = form.index_by_charge
    report["mass_rank"] = form.mass_rank
    report["basis_dim"] = form.basis.dim
    report["spectrum_head"] = [float(v) for v in form.spectrum[:8]]
    holo = near_holomorphic_section(geom, form)
    report["holomorphic_energy"] = holo["energy"]
    wv = weitzenboeck_variation(geom, holo["section"])
    report["averaged_second_variation"] = {
        "lhs": wv["lhs"], "rhs": wv["rhs"], "residual": wv["residual"],
        "terms": wv["terms"]}
    pair = wv["index_two"]
    report["index_two"] = dict(
        {k: float(pair[k]) for k in ("d2_sigma", "d2_jsigma", "cross")},
        d2_pair=[float(v) for v in pair["d2_pair"]],
        unstable_pair=bool(pair["unstable_pair"]))
    report["theorem_c"] = theorem_c_margins(geom)
    _write_report(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------- driver

def build_parser():
    ap = argparse.ArgumentParser(
        prog="curv4",
        description="curvature laboratory for explicit 4-manifolds")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, grid_help=None):
        if grid_help:
            p.add_argument("--grid", type=int, default=5, help=grid_help)
        p.add_argument("--quad", type=int, default=32,
                       help="Gauss-Legendre nodes per axis of the surface "
                            "quadrature and of the orbit volume rule (>= %d)"
                            % QuadSpec.MIN_N)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="report path (JSON)")

    p = sub.add_parser("analyze", help="pointwise curvature condition scan")
    common(p, "grid resolution per chart axis (>= 3; odd sizes include "
              "chart centres)")
    p.add_argument("--metric", required=True)
    p.add_argument("--csv", default=None, help="per-point margin dump")
    p.add_argument("--no-sectional", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scan-family", help="twisted-family parameter sweep")
    common(p, "grid size (>= 3); both scans use odd grids, which include "
              "chart centres: the margins scan grid | 1 points per chart "
              "axis, the positivity search max(3, (grid // 2) | 1); the "
              "report echoes --grid as given")
    p.add_argument("--t-values", default="0:1:11")
    p.add_argument("--eps-values", default="auto",
                   help="'auto' (0 and eps_max/2) or list/range")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_scan_family)

    p = sub.add_parser("verify-identities", help="cross-module identity suite")
    common(p)
    p.add_argument("--sections", type=int, default=5,
                   help="random sections per surface (>= 1)")
    p.add_argument("--tol", type=float, default=1.0,
                   help="tolerance scale factor for identity checks")
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser(
        "surface", help="minimal-surface stability report: index, "
                        "averaged second variation and the Theorem-C margins")
    common(p)
    p.add_argument("--metric", required=True)
    p.add_argument("--surface", required=True)
    p.add_argument("--L0", type=int, default=2)
    p.add_argument("--L-max", type=int, default=12,
                   help="highest harmonic degree (>= --L0 + 4); the "
                        "refinement stops at --quad - 1 if that is lower")
    p.set_defaults(func=cmd_surface)
    return ap


def _check_ranges(args):
    """Reject out-of-range numbers before any work is done."""
    for bad, what in (
            ("grid" in args and args.grid < 3, "--grid must be >= 3"),
            (args.quad < QuadSpec.MIN_N,
             "--quad must be >= %d" % QuadSpec.MIN_N),
            (args.seed < 0, "--seed must be >= 0"),
            (args.command == "verify-identities" and args.sections < 1,
             "--sections must be >= 1"),
            (args.command == "verify-identities"
             and not 0.0 < args.tol < np.inf,
             "--tol must be finite and > 0"),
            (args.command == "surface" and args.L0 < 0,
             "--L0 must be >= 0"),
            (args.command == "surface" and args.L0 + 4 > args.L_max,
             "--L-max must be at least --L0 + 4"),
            (args.command == "surface" and args.L0 + 4 > args.quad - 1,
             "--quad must be at least --L0 + 5 to resolve degree L0 + 4")):
        if bad:
            raise SpecParseError(what)


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the parse-error code
        return int(exc.code or 0)
    t0 = time.time()
    try:
        _check_ranges(args)
        code = args.func(args)
    except SpecParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except MetricConstructionError as exc:
        print("construction error: %s" % exc, file=sys.stderr)
        return EXIT_CONSTRUCTION
    except Curv4Error as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VIOLATION
    print("wall-clock: %.2f s" % (time.time() - t0), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
