import ast
import re
from pathlib import Path

import numpy as np
from numpy.testing import assert_allclose
import pytest

from curv4.jets import (
    Jet, array, drop, from_arrays, grad_array, hess_array, jlog, jsqrt, seedn,
    value,
)
from curv4.metrics import twisted_metric
from oracles import comps_jets, kaehler_comps

SRC = Path(__file__).resolve().parent.parent / "src" / "curv4"


def f_scalar(x):
    # smooth test function of 3 variables
    return jlog(1.0 + x[0] * x[0] + x[1] * x[2]) + jsqrt(2.0 + x[1] * x[1]) / (1.0 + x[2] ** 2)


def fd_grad(f, x, h=1e-6):
    g = np.zeros(len(x))
    for i in range(len(x)):
        xp = list(x); xm = list(x)
        xp[i] += h; xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def fd_hess(f, x, h=1e-4):
    n = len(x)
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            xpp = list(x); xpm = list(x); xmp = list(x); xmm = list(x)
            xpp[i] += h; xpp[j] += h
            xpm[i] += h; xpm[j] -= h
            xmp[i] -= h; xmp[j] += h
            xmm[i] -= h; xmm[j] -= h
            H[i, j] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4 * h * h)
    return H


def test_first_order_matches_finite_differences():
    x = [0.3, -0.7, 0.45]
    out = f_scalar(seedn(x, 1))
    assert_allclose(value(out), f_scalar(x))
    assert_allclose(grad_array(out, (), 3), fd_grad(f_scalar, x), rtol=1e-8, atol=1e-8)


def test_second_order_matches_finite_differences():
    x = [0.3, -0.7, 0.45]
    out = f_scalar(seedn(x, 2))
    assert_allclose(value(out), f_scalar(x))
    assert_allclose(grad_array(out, (), 3), fd_grad(f_scalar, x), rtol=1e-8, atol=1e-8)
    H = hess_array(out, (), 3)
    assert_allclose(H, H.T, atol=1e-15)
    assert_allclose(H, fd_hess(f_scalar, x), rtol=1e-5, atol=1e-5)


def test_batched_coefficients():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.8, 0.8, size=(50, 3))
    out = f_scalar(seedn([pts[:, 0], pts[:, 1], pts[:, 2]], 2))
    vals = value(out)
    assert vals.shape == (50,)
    for n in (0, 17, 49):
        single = f_scalar(seedn(list(pts[n]), 2))
        assert_allclose(vals[n], value(single))
        assert_allclose(grad_array(out, (50,), 3)[n], grad_array(single, (), 3),
                        rtol=1e-12)
        assert_allclose(hess_array(out, (50,), 3)[n], hess_array(single, (), 3),
                        rtol=1e-12)


def test_triple_nesting_third_derivative():
    # d^3/dx^3 of x**5 at x=1.3 is 60 x^2
    x0 = 1.3
    x = Jet(Jet(Jet(x0, (1.0,)), (1.0,)), (1.0,))
    out = x ** 5
    third = out.d[0].d[0].d[0]
    assert_allclose(value(third), 60 * x0 ** 2, rtol=1e-12)


def test_division_and_rops():
    x = seedn([2.0], 1)[0]
    y = 3.0 / (1.0 + x)
    assert_allclose(y.f, 1.0)
    assert_allclose(y.d[0], -3.0 / 9.0)
    z = (1.0 - x) * (x - 0.5) - x / 2.0
    assert_allclose(z.f, (1 - 2) * (2 - 0.5) - 1.0)


# ------------------------------------------------------------- jet layout

def test_from_arrays_inverts_the_array_readers():
    # a batched 2-jet, re-formed from its value, gradient and Hessian, and
    # its 1-jet from value and gradient, give the same arrays back
    rng = np.random.default_rng(3)
    x = seedn(list(rng.uniform(-0.5, 0.5, (3, 5))), 2)
    y = f_scalar(x)
    sh = (5,)
    for jet, order in ((y, 2), (drop(y), 1)):
        parts = [array(jet, sh), grad_array(drop(jet) if order == 2 else jet,
                                            sh, 3)]
        if order == 2:
            parts.append(hess_array(jet, sh, 3))
        back = from_arrays(*parts)
        assert_allclose(array(back, sh), parts[0], rtol=0, atol=0)
        assert_allclose(grad_array(back, sh, 3), parts[1], rtol=0, atol=0)
        if order == 2:
            assert_allclose(hess_array(back, sh, 3), parts[2], rtol=0, atol=0)
            assert_allclose(grad_array(drop(back), sh, 3), parts[1],
                            rtol=0, atol=0)


def test_only_jets_module_reads_jet_layout():
    layout = re.compile(r"\.d\[|\.f\b|isinstance\([^)]*Jet")
    readers = ["%s:%d: %s" % (p.name, n, line.strip())
               for p in sorted(SRC.glob("*.py")) if p.name != "jets.py"
               for n, line in enumerate(p.read_text().splitlines(), 1)
               if layout.search(line)]
    assert readers == []


def test_no_module_imports_unused_names():
    # every name a module imports is read in it; __init__ only re-exports
    unused = []
    for p in sorted(SRC.glob("*.py")):
        if p.name == "__init__.py":
            continue
        tree = ast.parse(p.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += ["%s:%d: %s" % (p.name, node.lineno, a.asname or a.name)
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for a in node.names
                   if (a.asname or a.name).split(".")[0] not in used]
    assert unused == []


def test_every_public_definition_is_referenced():
    # no dead code: each module-level public function or class of curv4 is
    # read by name in src/, tests/ or perfbench/ outside its definition and
    # the __init__ re-exports; the benchmark's tracer names the callables
    # it wraps in "module:qualname" strings
    root = SRC.parent.parent
    defined = {node.name: p.stem
               for p in sorted(SRC.glob("*.py"))
               for node in ast.parse(p.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    read = set()
    paths = [p for d in ("src", "tests", "perfbench")
             for p in sorted((root / d).rglob("*.py"))]
    for p in paths:
        if p == SRC / "__init__.py":
            continue
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str) and re.fullmatch(r"\w+:[\w.]+",
                                                      node.value):
                read.update(node.value.split(":")[1].split("."))
    assert sorted("%s:%s" % (mod, name) for name, mod in defined.items()
                  if name not in read) == []


#: definitions no command reaches, each with the reason it stays in src/
UNREACHED_ALLOWED = {
    "riemann_at": "the benchmark's tracer patches it by name "
                  "(perfbench/tracer.py SPANS)",
    "variational_identity_lemma310": "the benchmark's tracer patches it by "
                                     "name (perfbench/tracer.py SPANS)",
}


def _definitions(body):
    """(name, nodes read) of each definition in a module or class body: a
    function, a class without its methods, each method that Python does
    not call implicitly (not a dunder) on its own, and the targets of an
    assignment."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            methods = [n for n in node.body if isinstance(n, ast.FunctionDef)
                       and not n.name.startswith("__")]
            yield node.name, node.bases + node.decorator_list + [
                n for n in node.body if n not in methods]
            yield from _definitions(methods)
        elif isinstance(node, ast.FunctionDef):
            yield node.name, [node]
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        yield n.id, [node]


def test_every_definition_is_reachable_from_main():
    # no dead code: walking the names and attributes that each definition
    # of src/ reads, starting at cli.main, reaches every other one, or it
    # is on the allow-list; a method is reached by its name, not by its
    # class
    defs = {}
    for p in sorted(SRC.glob("*.py")):
        for name, nodes in _definitions(ast.parse(p.read_text()).body):
            defs.setdefault(name, []).extend(nodes)
    seen, todo = set(), ["main"]
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for node in defs[name]:
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    todo.append(n.id)
                elif isinstance(n, ast.Attribute):
                    todo.append(n.attr)
    assert sorted(set(defs) - seen) == sorted(UNREACHED_ALLOWED)


def test_no_module_imports_private_names():
    # a name another module needs is public: no `from .module import _name`
    private = ["%s:%d: %s" % (p.name, node.lineno, a.name)
               for p in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.ImportFrom) and node.level
               for a in node.names
               if a.name.startswith("_") and not a.name.endswith("__")]
    assert private == []


def test_no_function_local_imports():
    # every package import sits at module level
    local = set()
    for p in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(p.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local |= {"%s:%s: from .%s import %s"
                          % (p.stem, fn.name, node.module,
                             ", ".join(a.name for a in node.names))
                          for node in ast.walk(fn)
                          if isinstance(node, ast.ImportFrom) and node.level}
    assert sorted(local) == []


def test_no_module_scans_the_full_grid():
    # the scans take one point per T^2 orbit (Chart.orbit_grid): no module
    # calls .grid(, so a full-grid scan cannot creep back in
    calls = ["%s:%d" % (p.name, node.lineno)
             for p in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "grid"]
    assert calls == []


def test_only_section_data_reads_a_normal_section():
    # a chart's connection form omega and the frame coefficients p, dp of
    # its normal directions are read in surfaces.section_data alone, apart
    # from ChartGeometry's own self. reads, so that no second evaluation of
    # a normal section can creep back in
    reads = []
    for p in sorted(SRC.glob("*.py")):
        tree = ast.parse(p.read_text())
        allowed = set()
        for node in ast.walk(tree) if p.stem == "surfaces" else ():
            if isinstance(node, ast.FunctionDef) and \
                    node.name == "section_data":
                allowed |= set(ast.walk(node))
            elif isinstance(node, ast.ClassDef) and \
                    node.name == "ChartGeometry":
                allowed |= {n for n in ast.walk(node)
                            if isinstance(n, ast.Attribute)
                            and isinstance(n.value, ast.Name)
                            and n.value.id == "self"}
        reads += ["%s:%d" % (p.name, node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("p", "dp", "omega")
                  and isinstance(node.ctx, ast.Load) and node not in allowed]
    assert reads == []


# ------------------------------------------------------------- 2-form jets

def _cubic_form(chart, x):
    """A 2-form with polynomial, constant-jet and plain-constant entries."""
    out = [[0.0] * 4 for _ in range(4)]
    vals = {(0, 1): 1.0 + x[0] * x[1] * x[2] - 0.5 * x[3] ** 3,
            (0, 2): 2.0 + 0.0 * x[0],
            (1, 3): x[1] * x[1] * x[3] + 0.3 * x[0] * x[2],
            (2, 3): -0.7 * x[0] ** 3 + x[2] * x[3]}
    for (i, j), v in vals.items():
        out[i][j] = v
        out[j][i] = -1.0 * v
    return out


def _form_values(alpha, chart, p):
    rows = alpha(chart, list(p))
    return np.array([[float(v) for v in row] for row in rows])


def _fd1(alpha, chart, p, h):
    out = np.zeros((4, 4, 4))
    for k in range(4):
        pp, pm = p.copy(), p.copy()
        pp[k] += h
        pm[k] -= h
        out[k] = (_form_values(alpha, chart, pp)
                  - _form_values(alpha, chart, pm)) / (2 * h)
    return out


def _fd2(alpha, chart, p, h):
    out = np.zeros((4, 4, 4, 4))
    for l in range(4):
        pp, pm = p.copy(), p.copy()
        pp[l] += h
        pm[l] -= h
        out[l] = (_fd1(alpha, chart, pp, h) - _fd1(alpha, chart, pm, h)) / (2 * h)
    return out


def _form_cases():
    rng = np.random.default_rng(3)
    m = twisted_metric(0.5, 0.05)
    kf = kaehler_comps(m)
    cases = [pytest.param(kf, chart, pts, id="kaehler-twisted-" + chart)
             for chart, pts in m.sample_points(rng, 2)]
    cases.append(pytest.param(_cubic_form, "e",
                              rng.uniform(-0.8, 0.8, size=(3, 4)), id="cubic"))
    return cases


@pytest.mark.parametrize("alpha, chart, pts", _form_cases())
def test_two_form_jets_match_central_differences(alpha, chart, pts):
    A, dA, d2A = comps_jets(alpha, chart, pts)
    assert A.shape == (len(pts), 4, 4)
    for n, p in enumerate(pts):
        single = comps_jets(alpha, chart, p)
        for batched, one in zip((A, dA, d2A), single):
            assert_allclose(batched[n], one, rtol=1e-14, atol=1e-14)
        assert_allclose(A[n], _form_values(alpha, chart, p), atol=1e-14)
        scale = max(1.0, np.abs(dA[n]).max())
        assert np.abs(dA[n] - _fd1(alpha, chart, p, 1e-4)).max() / scale < 5e-7
        s2 = max(1.0, np.abs(d2A[n]).max())
        assert np.abs(d2A[n] - _fd2(alpha, chart, p, 1e-4)).max() / s2 < 1e-5
