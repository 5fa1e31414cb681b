"""End-to-end and per-layer benchmark of the curv4 command-line tool.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fresh ``python -m curv4.cli ...`` process, as a user
would start it, with ``src/`` on PYTHONPATH.  The benchmark repeats it for
about ``--seconds`` (at least once), times every process from outside and
takes its peak memory and CPU time from that child's own ``os.wait4``
rusage.  Every report is checked against the paper's invariants
(checks.py) and against the first report of the same workload and seed
made from the same sources in this checkout.

--trace 0 prints the end-to-end metrics: the median wall time, the median
set-up time of ``python -m curv4.cli --version`` (interpreter start plus
imports) and the peak RSS.  Failed runs are counted in ``failed`` out of
``attempted``.  --trace 1 makes the same untraced runs and then one traced
run in a fresh process (tracer.py), whose spans give per-layer self times
and counts.  The last line of stdout is the JSON result; metric names and
units come from BENCHMARK.json.

The CLI keeps ``--threads`` at its default of 1: at 2 threads the chunk
seeding in ``condition_check`` depends on scheduling, so a threading gain
needs that fixed first and a workload of its own.  CURV4_THREADS is removed
from the child's environment; the BLAS thread variables are left alone and
recorded with the run metadata.

Workloads, and which layers should move which end-to-end metric:

pointwise-scan  analyze twisted(t=0.5,eps=0.05), grid 5 (2,500 points),
                sectional search on.  curvature.sectional.* moves wall_s
                and peak_rss_mb; metrics.twisted_eps_max.* moves wall_s.
family-sweep    scan-family --t-values 0:1:3 (6 cells, pd-grid 16): the
                eps bisections on cached jets, sectional search off.
                metrics.twisted_eps_max.*, curvature.positivity_eps_max.*,
                curvature.from_arrays.* and metrics.jets.* move wall_s.
index-form      surface fs/cp1-line (quad 32, L 2..6): the minimal-sphere
                stack on a twisted normal bundle.  stability.*, sphharm.*
                and surfaces.section_data.* move wall_s; surfaces.geometry.*
                moves peak_rss_mb.  Neither eps search nor the sectional
                search runs, so items changing those must leave it flat.
identity-suite  verify-identities --sections 20: single-point calls
                (riemann_at, section_data) and the only 2-form Weitzenboeck
                code.  curvature.weitzenboeck_2form.* and
                curvature.riemann_at.calls move wall_s; surfaces.geometry.*
                moves peak_rss_mb.

Everything else should stay flat on the workloads not named for it.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"            # reports, spans and logs of the runs
SETUP_LAUNCHES = 5
DEADLINE_S = 170                      # the whole run, children included
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = {
    "pointwise-scan": (["analyze", "--metric", "twisted(t=0.5,eps=0.05)"],
                       checks.check_pointwise_scan),
    "family-sweep": (["scan-family", "--t-values", "0:1:3"],
                     checks.check_family_sweep),
    "index-form": (["surface", "--metric", "fs", "--surface", "cp1-line"],
                   checks.check_index_form),
    "identity-suite": (["verify-identities", "--sections", "20"],
                       checks.check_identity_suite),
}


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def child_env():
    env = dict(os.environ)
    env.pop("CURV4_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, deadline):
    """Run one child to completion; (wall seconds, rusage, exit code).

    The child is killed if it outlives ``deadline`` (a perf_counter time).
    """
    with open(WORK / "child.log", "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode


class Runner:
    """Runs one workload at one seed and judges every report."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.args, self.check = WORKLOADS[workload]
        self.args = self.args + ["--seed", str(seed)]
        self.deadline = deadline
        # reference digest of the first report from the same sources
        self.ref = WORK / "reports" / ("%s-%d-%s.sha256"
                                       % (workload, seed, source_digest()))
        self.attempted = 0
        self.failed = 0

    def run(self, prefix):
        """One process; returns (wall, rusage) and counts a failure."""
        out = WORK / "report.json"
        out.unlink(missing_ok=True)
        wall, usage, code = spawn(
            prefix + self.args + ["--out", str(out)], self.deadline)
        self.attempted += 1
        problems = self.judge(code, out)
        if problems:
            self.failed += 1
            print("FAILED %s: %s" % (self.workload, "; ".join(problems)),
                  file=sys.stderr)
        return wall, usage

    def judge(self, code, out):
        if code != 0:
            return ["exit code %d (see %s)" % (code, WORK / "child.log")]
        text = out.read_bytes()
        problems = self.check(json.loads(text))
        if problems:
            return problems
        digest = hashlib.sha256(text).hexdigest()
        if not self.ref.exists():
            self.ref.write_text(digest)     # first run with this seed
        if self.ref.read_text() != digest:
            return ["report differs from the first run with this seed"]
        return []


def setup_seconds(deadline):
    argv = [sys.executable, "-m", "curv4.cli", "--version"]
    walls = []
    for i in range(SETUP_LAUNCHES + 1):
        wall, _, code = spawn(argv, deadline)
        if code != 0:
            raise SystemExit("perfbench: `curv4 --version` exited %d" % code)
        if i:                                # the first one warms caches
            walls.append(wall)
    return statistics.median(walls)


def timed_runs(runner, seconds):
    """Untraced runs while at least half of the next is expected to fit
    within ``seconds``."""
    walls, usages = [], []
    t0 = time.perf_counter()
    while not walls or (time.perf_counter() - t0
                        + statistics.median(walls) / 2 <= seconds):
        wall, usage = runner.run([sys.executable, "-m", "curv4.cli"])
        walls.append(wall)
        usages.append(usage)
    return walls, usages


def layer_metrics(spans, traced_wall, untraced_wall, cpu_s):
    by, root = tracer.summarize(spans)
    empty = {"calls": 0, "self_s": 0.0, "sizes": []}
    get = lambda name: by.get(name, empty)
    out = {name + ".self_s": get(name)["self_s"] for name in tracer.SPANS}
    geometry = get("surfaces.geometry")["calls"]
    requests = get("surfaces.geometry_request")["calls"]
    out.update({
        "metrics.jets.points": sum(get("metrics.jets")["sizes"]),
        "metrics.twisted_eps_max.computed":
            len(set(get("metrics.twisted_eps_max")["sizes"])),
        "curvature.from_arrays.calls": get("curvature.frame")["calls"],
        "curvature.from_arrays.points": sum(get("curvature.frame")["sizes"]),
        "curvature.sectional.points": sum(get("curvature.sectional")["sizes"]),
        "curvature.positivity_eps_max.curvature_calls": tracer.ancestor_calls(
            spans, "curvature.frame", "curvature.positivity_eps_max"),
        "curvature.riemann_at.calls": get("curvature.riemann_at")["calls"],
        "bivector.wedge.calls": get("bivector.wedge")["calls"],
        "surfaces.geometry.builds": geometry,
        "surfaces.geometry.requests": requests,
        "surfaces.geometry.hit_ratio":
            1.0 - geometry / requests if requests else 0.0,
        "surfaces.section_data.calls": get("surfaces.section_data")["calls"],
        "sphharm.real_harmonics.calls": get("sphharm.real_harmonics")["calls"],
        "stability.node_data.calls": get("stability.node_data")["calls"],
        "stability.assemble.dim_max":
            max(get("stability.assemble")["sizes"], default=0),
        "stability.refine.levels": sum(get("stability.refine")["sizes"]),
        "cli.other.self_s": traced_wall - root,
        "cli.span_coverage": root / traced_wall,
        "cli.cpu_s": cpu_s,
        "cli.trace_overhead_s": traced_wall - untraced_wall,
    })
    return out


def metadata():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():        # the checkout may not be a repo
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True).stdout.strip() or None
        except OSError:
            pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "commit": commit, "src_lines": src_lines,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "curv4" / "cli.py").is_file():
        raise SystemExit("perfbench: no curv4 sources under %s"
                         % (ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if opts.trace else "end_to_end"]
    (WORK / "reports").mkdir(parents=True, exist_ok=True)

    runner = Runner(opts.workload, opts.seed, deadline)
    values = {}
    if not opts.trace:
        values["setup_s"] = setup_seconds(deadline)
    walls, usages = timed_runs(runner, opts.seconds)
    cpus = [u.ru_utime + u.ru_stime for u in usages]
    values["wall_s"] = statistics.median(walls)
    values["peak_rss_mb"] = statistics.median(u.ru_maxrss / 1024
                                              for u in usages)
    if opts.trace:
        spans_path = WORK / "spans.json"
        spans_path.unlink(missing_ok=True)
        traced_wall, _ = runner.run(
            [sys.executable, str(Path(tracer.__file__)), str(spans_path),
             "--"])
        spans = json.loads(spans_path.read_text())["spans"]
        values = layer_metrics(spans, traced_wall, values["wall_s"],
                               statistics.median(cpus))

    print("meta " + json.dumps(metadata(), sort_keys=True))
    print("samples " + json.dumps({"wall_s": walls, "cpu_s": cpus}))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
