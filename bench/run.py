"""Benchmark for gyrotrack: end-to-end timings and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload track_single --seed 1 --seconds 20 --trace 0

Workloads: track_single, sweep_short, plot_telemetry (see workloads.py).
The program is imported from ``src/``; nothing needs installing.

With ``--trace 0`` the run measures, with tracing off:

* setup_s      the median of five fresh-interpreter imports of the CLI,
               plus the median of three input generations (for
               plot_telemetry each is a 2 s ``gyrotrack simulate``);
* op_ref_p50   the median time of one operation in reference units:
               its wall time over that of a fixed reference computation
               (see ``reference_work``) run just before and just after
               it.  On a shared 2-core x86-64 VM the speed of the host
               switches by up to 1.8x many times a minute, for CPU time
               as for wall time; the ratio cancels most of that, which
               the plain seconds below cannot;
* op_s_p50     the median wall time of one operation, printed only;
* op_s_tail    the highest nearest-rank percentile with at least ten
               operations beyond it, given with that percentile and the
               sample count, when a run holds at least 20 operations;
* steps_per_s  integrator steps per second of operation wall time, where
               the workload integrates;
* peak_rss_mb  the peak resident memory of this process;
* error_rate   failed operations over attempted ones.

One untimed operation warms caches and lazy set-up first.  New
operations start until the timed phase would end more than half an
operation past ``--seconds``.  Every operation is checked (see checks.py)
and a failed check counts it as failed; the checks themselves are fed
broken outputs after the timed phase and must reject each one.

With ``--trace 1`` operations run untraced for a third of ``--seconds``,
then the same operations run twice with the layer bindings wrapped (see
tracing.py); the call counts of the two traced passes must agree
exactly.  The per-layer metrics and the trace file
``.bench_work/traces/<workload>-seed<seed>.json`` come from the traced
passes; ``trace.overhead`` is their median operation time over the
untraced one, both in reference units.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json without tracing, its per-layer metrics with.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads, for this process and
# every child it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
IMPORT_PROBES = 5
# One reference measurement is this many calls of reference_work, 0.05 to
# 0.1 s on a shared 2-core x86-64 VM.
REFERENCE_CALLS = 2
MODULES = ("cli", "config", "control", "dynamics", "errors", "integrators",
           "scenario")


@dataclass
class Op:
    wall: float
    ref: float
    problems: list
    steps: int
    io: dict


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("track_single", "sweep_short",
                                 "plot_telemetry"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_probe():
    """Wall time of a fresh interpreter that imports the CLI."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gyrotrack.cli"],
                   check=True, capture_output=True, timeout=120,
                   env=os.environ)
    return time.perf_counter() - start


def _scale(x, y):
    return x * y + 1.0


def reference_work():
    """A fixed computation with the program's mix of work: 3x3 numpy
    products and small-array arithmetic, Python calls and float maths,
    and number formatting and parsing as in CSV output and input.  It
    never touches the code under test."""
    a, v, s = np.eye(3), np.array([0.1, 0.2, 0.3]), 0.0
    for i in range(1000):
        a = a @ a * 0.5 + np.eye(3) * 0.5
        b = a.T @ v
        c = np.outer(v * b, v) * 1e-3 + a
        s += float(np.linalg.norm(c)) + float(np.dot(v, b)) ** 0.5
    d = {"a": 1.0, "b": 2.0}
    for i in range(15000):
        s += _scale(d["a"], i * 1e-6) - math.sqrt(d["b"] + i)
    rows = [",".join(repr(i * 1.000001 + k) for k in range(3))
            for i in range(2000)]
    s += sum(float(x) for row in rows for x in row.split(","))
    return s


def reference_wall():
    t0 = time.perf_counter()
    for _ in range(REFERENCE_CALLS):
        reference_work()
    return time.perf_counter() - t0


def run_ops(wl, inputs, seconds=None, count=None, tracer=None):
    """Run operations one after another; each is timed alone, then checked.

    A reference measurement runs before the first operation and after
    each one; an operation's ``ref`` is its wall time over the mean of
    the two measurements around it.  Stops after ``count`` operations, or
    once the next one would end more than half a median operation past
    ``seconds``.
    """
    ops = []
    start = time.perf_counter()
    before = reference_wall()
    while True:
        inp = inputs[len(ops) % len(inputs)]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.call(inp)
            else:
                out = tracer.operation("op." + wl.name, wl.call, inp)
            error = None
        except Exception as exc:  # a raising operation is a failed one
            out, error = None, exc
        wall = time.perf_counter() - t0
        problems = ([f"raised {type(error).__name__}: {error}"] if error
                    else wl.check(inp, out))
        del out
        after = reference_wall()
        ops.append(Op(wall, 2.0 * wall / (before + after), problems,
                      0 if problems else wl.steps(inp), wl.io_bytes()))
        before = after
        if count is not None:
            if len(ops) >= count:
                return ops
        elif (time.perf_counter() - start
              + 0.5 * statistics.median(op.wall for op in ops)) >= seconds:
            return ops


def tail(walls):
    """(value, percentile, samples) of the highest nearest-rank percentile
    with at least ten samples beyond it, or None below 20 samples."""
    n = len(walls)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct * n / 100)
    return sorted(walls)[rank - 1], pct, n


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def src_digest():
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "gyrotrack").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(args, loadavg):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": git_sha(), "src_sha256": src_digest(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "loadavg_start": loadavg,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def untraced(wl, inputs, args, setup_s):
    warm = run_ops(wl, inputs, count=1)
    ops = run_ops(wl, inputs, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [op.wall for op in ops]
    steps = sum(op.steps for op in ops)
    failed = sum(bool(op.problems) for op in ops)
    metrics = {"setup_s": setup_s,
               "op_ref_p50": statistics.median(op.ref for op in ops),
               "peak_rss_mb": peak_rss_mb}
    lines = [f"  setup_s      {setup_s:.4f} s",
             f"  op_ref_p50   {metrics['op_ref_p50']:.4f} ref "
             f"(reference measurement {REFERENCE_CALLS} x reference_work)",
             f"  op_s_p50     {statistics.median(walls):.4f} s "
             f"(median of {len(walls)} operations, {min(walls):.4f} "
             f"to {max(walls):.4f} s)"]
    t = tail(walls)
    lines.append(f"  op_s_tail    {t[0]:.4f} s (p{t[1]} of {t[2]} operations)"
                 if t else f"  op_s_tail    not reported ({len(walls)} "
                 "operations; needs at least 20)")
    if steps:
        sps = steps / sum(op.wall for op in ops if not op.problems)
        lines.append(f"  steps_per_s  {sps:.1f} 1/s ({steps} steps)")
    else:
        lines.append("  steps_per_s  not applicable (no integration)")
    lines += [f"  peak_rss_mb  {peak_rss_mb:.2f} MB",
              f"  error_rate   {failed / len(ops):.4g} "
              f"({failed} of {len(ops)} operations failed)"]
    return warm + ops, metrics, lines


def traced(wl, inputs, args, gyro, record):
    base = run_ops(wl, inputs, seconds=args.seconds / 3)
    tracers, passes = [], []
    for _ in range(2):
        tracer = tracing.Tracer(gyro["errors"].DivergedStateError)
        tracer.install(gyro)
        try:
            passes.append(run_ops(wl, inputs, count=len(base), tracer=tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    ops = base + passes[0] + passes[1]
    traced_ops = passes[0] + passes[1]

    problems = []
    if tracers[0].counts() != tracers[1].counts():
        problems.append("call counts differ between the two traced passes: "
                        f"{tracers[0].counts()} vs {tracers[1].counts()}")
    for tracer in tracers:
        if tracer.missing:
            print("warning: bindings not found, left untraced: "
                  + ", ".join(tracer.missing), file=sys.stderr)

    metrics = tracing.layer_metrics(tracers)
    for key in ("cli.output_bytes", "cli.input_bytes", "svgplot.bytes"):
        metrics[key] = statistics.fmean(op.io.get(key, 0)
                                        for op in traced_ops)
    metrics["trace.overhead"] = (
        statistics.median(op.ref for op in traced_ops)
        / statistics.median(op.ref for op in base))

    out = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "run": record, "counts": tracers[0].counts(),
        "untraced_walls": [op.wall for op in base],
        "passes": [t.record() for t in tracers]}, indent=1), encoding="utf-8")

    lines = [f"  {name:<40} {value:.6g}" for name, value in metrics.items()]
    lines.append(f"  trace written to {out.relative_to(ROOT)}")
    return ops, metrics, lines, problems


def run(args, run_dir, loadavg):
    sys.path.insert(0, str(SRC))
    gyro = {name: importlib.import_module("gyrotrack." + name)
            for name in MODULES}
    run_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](gyro, run_dir)
    probe_s = statistics.median(import_probe() for _ in range(IMPORT_PROBES))
    gen_times = []
    for _ in range(wl.prepare_repeats):
        t0 = time.perf_counter()
        inputs = wl.prepare(args.seed)
        gen_times.append(time.perf_counter() - t0)
    setup_s = probe_s + statistics.median(gen_times)
    record = run_record(args, loadavg)

    if args.trace:
        ops, metrics, lines, problems = traced(wl, inputs, args, gyro, record)
    else:
        ops, metrics, lines = untraced(wl, inputs, args, setup_s)
        problems = []
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")

    try:
        problems += checks.self_test(gyro, *workloads.selftest_inputs(),
                                     run_dir / "selftest")
    except Exception as exc:  # a self-test that cannot run has failed
        problems.append(f"self-test could not run: {exc!r}")

    failed = sum(bool(op.problems) for op in ops)
    print(f"gyrotrack benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("run record: " + json.dumps(record, sort_keys=True))
    print("\n".join(lines))
    for op in [op for op in ops if op.problems][:5]:
        print("failed operation: " + "; ".join(op.problems))
    for problem in problems:
        print("check failure: " + problem)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    loadavg = os.getloadavg()
    if not (SRC / "gyrotrack" / "cli.py").is_file():
        print(f"error: gyrotrack sources not found under {SRC}",
              file=sys.stderr)
        return 2
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        return run(args, run_dir, loadavg)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
