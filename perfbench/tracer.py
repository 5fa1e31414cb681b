"""Outside-in span tracer for curv4, kept entirely in the benchmark.

It wraps the public functions of each curv4 module (nothing under ``src/``
changes) and records one span per call: name, start, end, parent span and
an optional size.  Spans stay in memory and are written out at the end.

Run as a script it executes one traced CLI command in this process:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- verify-identities

and exits with the CLI's exit code.
"""

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

# span name -> curv4 callables, "module:qualname".  Plain functions are
# replaced at every module attribute bound to them, because cli, stability
# and surfaces import several of them by name; methods are replaced on
# their class.
SPANS = {
    "metrics.construct": ["metrics:parse_metric_spec"],
    "metrics.jets": ["metrics:MetricField.jets"],
    "metrics.eval": ["metrics:MetricField.eval"],
    "metrics.twisted_eps_max": ["metrics:twisted_eps_max"],
    "metrics.volume": ["metrics:volume"],
    "curvature.christoffel": ["curvature:christoffel_arrays",
                              "curvature:christoffel_derivatives"],
    "curvature.riemann": ["curvature:riemann_arrays"],
    "curvature.frame": ["curvature:curvature_from_arrays"],
    "curvature.margins": ["curvature:condition_check"],
    "curvature.sectional": ["curvature:sectional_extremes"],
    "curvature.positivity_eps_max": ["curvature:positivity_eps_max"],
    "curvature.riemann_at": ["curvature:riemann_at"],
    "curvature.weitzenboeck_2form": ["curvature:weitzenboeck_residual"],
    "bivector.wedge": ["bivector:wedge"],
    "surfaces.geometry": ["surfaces:SurfaceGeometry.__init__"],
    "surfaces.geometry_request": ["surfaces:surface_geometry"],
    "surfaces.section_data": ["surfaces:section_data"],
    "surfaces.weitzenboeck_variation": ["surfaces:weitzenboeck_variation"],
    "surfaces.lemma310": ["surfaces:variational_identity_lemma310"],
    "sphharm.real_harmonics": ["sphharm:real_harmonics"],
    "stability.node_data": ["stability:SectionBasis.node_data"],
    "stability.assemble": ["stability:assemble_index_form"],
    "stability.eigensolve": ["stability:IndexForm.__init__"],
    "stability.near_holomorphic": ["stability:near_holomorphic_section"],
    "stability.refine": ["stability:refine_until_stable"],
}


def _eps_max_key(fn):
    sig = inspect.signature(fn)

    def key(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return repr([float(v) if isinstance(v, (int, float)) else v
                     for v in bound.arguments.values()])
    return key


# span name -> size(args, kwargs, result) recorded with each span
SIZES = {
    "metrics.jets": lambda a, kw, r: np.size(r[0]) // 16,
    "curvature.frame": lambda a, kw, r: np.size(r["g"]) // 16,
    "curvature.sectional": lambda a, kw, r: np.size(r[0]),
    "stability.assemble": lambda a, kw, r: r.basis.dim,
    "stability.refine": lambda a, kw, r: len(r["history"]),
}


class Tracer:
    """Records spans of wrapped calls; single-threaded, like the CLI at
    its default of one thread."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, size]
        self._stack = []

    def wrap(self, name, fn, size=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, None]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if size is not None:
                span[4] = size(args, kwargs, result)
            return result
        return traced

    def install(self):
        """Patch every callable in SPANS for the rest of the process."""
        import curv4.cli    # loads every module that binds a callable
        modules = [m for n, m in sys.modules.items()
                   if n == "curv4" or n.startswith("curv4.")]
        for name, targets in SPANS.items():
            for target in targets:
                modname, qual = target.split(":")
                mod = importlib.import_module("curv4." + modname)
                size = SIZES.get(name)
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[attr]
                    setattr(cls, attr, self.wrap(name, orig, size))
                    continue
                orig = getattr(mod, qual)
                if name == "metrics.twisted_eps_max":
                    size = _eps_max_key(orig)
                new = self.wrap(name, orig, size)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, new)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "size"],
                       "spans": self.spans}, fh)


def summarize(spans):
    """Per span name: calls, total self time, sizes; plus root time.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans add up to the root spans'.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    root = 0.0
    for i, (name, t0, t1, parent, size) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "sizes": []})
        rec["calls"] += 1
        rec["self_s"] += (t1 - t0) - child[i]
        if size is not None:
            rec["sizes"].append(size)
        if parent < 0:
            root += t1 - t0
    return out, root


def ancestor_calls(spans, name, ancestor):
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    count = 0
    for span in spans:
        if span[0] != name:
            continue
        p = span[3]
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][3]
        count += p >= 0
    return count


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <curv4 cli args>",
              file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from curv4.cli import main as cli_main
    try:
        return cli_main(argv[2:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
