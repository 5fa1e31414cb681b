"""Correctness checks of curv4 reports, one per benchmark workload.

Each check tests the report against invariants from the paper and the
workload's construction, not against a snapshot, so that an exact algorithm
replacing a heuristic (or a corrected search bound) still passes.  A check
returns the list of violated conditions; an empty list means correct.
"""

import math

VOL_S2xS2 = 16 * math.pi ** 2          # (4 pi)^2: both factors unit spheres
VOL_TOL = 1e-3

# min_sectional of analyze twisted(t=0.5,eps=0.05) at grid 5 from the
# multi-start search; it is an upper bound, and the exact minimum found by
# Thorpe duality lies at most 4e-7 below it.
MIN_SECTIONAL_REF = -0.00657534246575343
MIN_SECTIONAL_TOL = 1e-6


def _check(problems, ok, what):
    if not ok:
        problems.append(what)


def check_pointwise_scan(rep):
    p = []
    cond = rep["conditions"]
    m = cond["margins"]
    tol = cond["tol_psd"]
    _check(p, cond["npoints"] == 2500, "npoints != 2500")
    _check(p, abs(rep["volume"] - VOL_S2xS2) <= VOL_TOL,
           "volume not 16 pi^2")
    _check(p, all(v <= 1e-10 for v in rep["kaehler_residuals"].values()),
           "Kaehler residual above 1e-10")
    # Kaehler: the spectrum of W+ is (-s/12, -s/12, s/6), so s/6 - W+ >= 0
    # with a kernel and s/12 + W+ has a zero eigenvalue
    _check(p, m["s6_minus_wplus"] >= -tol, "s/6 - W+ not PSD")
    _check(p, abs(m["s12_plus_wplus"]) <= tol, "min eig(s/12 + W+) != 0")
    _check(p, m["curvature_operator"] <= m["min_sectional"],
           "curvature operator above min sectional curvature")
    _check(p, abs(m["min_sectional"] - MIN_SECTIONAL_REF)
           <= MIN_SECTIONAL_TOL, "min_sectional moved")
    return p


def check_family_sweep(rep):
    p = []
    cells = rep["cells"]
    _check(p, len(cells) == 6, "expected 3 t values x 2 eps cells")
    for c in cells:
        where = "t=%g eps=%g" % (c["t"], c["eps"])
        if "error" in c:
            p.append("%s: %s" % (where, c["error"]))
            continue
        _check(p, abs(c["volume"] - VOL_S2xS2) <= VOL_TOL,
               "%s: volume not 16 pi^2" % where)
        _check(p, c["margins"]["s6_minus_wplus"] >= -1e-6,
               "%s: s/6 - W+ negative" % where)
        # eps_max_pd is not pinned: the bisection grid overstates it
        _check(p, 0 < c["eps_max_positivity"] <= c["eps_max_pd"],
               "%s: eps_max_positivity outside (0, eps_max_pd]" % where)
    return p


def check_index_form(rep):
    p = []
    asv = rep.get("averaged_second_variation", {"residual": math.inf})
    # the projective line in CP^2 is stable, with the 4-dimensional kernel
    # of the holomorphic sections of O(1) ...
    _check(p, rep.get("morse_index") == 0, "Morse index != 0")
    _check(p, rep.get("nullity") == 4, "nullity != 4")
    # ... normal bundle of degree 1 and area pi for Fubini-Study
    _check(p, abs(rep["c1"] - 1) <= 1e-3, "c1 != 1")
    _check(p, abs(rep["area"] - math.pi) <= 1e-6, "area != pi")
    _check(p, rep["minimality_residual"] <= 1e-8, "surface not minimal")
    _check(p, asv["residual"] <= 1e-4, "averaged second variation residual")
    _check(p, abs(rep.get("holomorphic_energy", math.inf)) <= 1e-8,
           "holomorphic section energy above 1e-8")
    return p


def check_identity_suite(rep):
    p = []
    _check(p, len(rep["identities"]) > 0, "no identities run")
    _check(p, rep["failures"] == [], "failing identities %r" % rep["failures"])
    _check(p, all(r["pass"] for r in rep["identities"]),
           "identity rows not passing")
    return p
