"""Command-line front end.

Subcommands:

* ``simulate <config> -o <csv>``   run the tracking loop, write telemetry
  CSV plus a JSON metadata sidecar, from the run's blocks, which no
  process holds whole; its helpers, the reference body and the writer,
  are each a `stream.child`: a child process on Linux, and elsewhere, or
  beside another Python thread, work in this process, the reference 16
  steps at a time and the writer a block at a time: the same bytes, in
  about 1.8 times the time
* ``tune-gains <config> [--synthesize]``   evaluate (or synthesize) gains
  against the certification inequalities
* ``compare <config> -o <dir>``    effort comparison against the
  integral-free baseline, from each run's blocks folded into its two
  effort columns, which are all `compare` holds of a run
* ``plot <csv> -o <svg> [--entries ...]``  render attitude-entry overlays,
  error decay and effort norms as static SVG files; a CSV whose header is
  not COLUMNS or whose rows are not all finite numbers fails with exit 1
* ``check <config>``               validate a config and exit

Errors.  Commands return 0 or raise; `main` alone turns an error into
an exit code and prints ``error: <message>`` to stderr: 2 numerical
divergence, 1 any other GyrotrackError (config, schema, gain synthesis),
OSError (a file that cannot be read or written, or a failed telemetry
writer or reference body process) or MemoryError (a ``compare`` whose
effort columns, 4 floats a sample, do not fit in memory, raised before
either run starts).  A usage error, a bad ``--entries`` among them,
exits 1 after argparse prints it.  An output file whose directory is
missing (or, for a symlink, that of the file it names), which is
itself a directory, or which names the command's input or another of
its outputs, fails once the input has loaded, before anything is
integrated or written; ``compare`` creates its output directory (for
a dangling symlink, the directory it names) only after the run.

The CSV schema is a stable contract (see COLUMNS): one row per sample,
numbers with 17 significant digits, comma separated, LF line endings.
All dynamics are deterministic, and reruns produce byte-identical files.
"""

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_config, serialize_config
from .control import (gain_feasible, lambda_sup_formula, mu_hess_formula,
                      q_matrix, synthesize_gains)
from .errors import DivergedStateError, GyrotrackError, SchemaMismatchError
from .scenario import block_records, closed_loop_blocks, compare_efforts
from .stream import child
from .svgplot import Panel, Series, write_svg

COLUMNS = (
    ["t"]
    + [f"R{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    + [f"Rd{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    + [f"Omega{k}" for k in (1, 2, 3)]
    + [f"OmegaR{k}" for k in (1, 2, 3)]
    + [f"Theta{k}" for k in (1, 2, 3)]
    + [f"uint{k}" for k in (1, 2, 3)]
    + ["psi_E", "geo_err", "E_cl", "momentum_drift"]
)

_REFERENCE_COLOR = "#d62728"   # reference drawn in red
_PLANT_COLOR = "#1f77b4"       # controlled trajectory in blue



def _check_outputs(source, *paths):
    """The file each output path names (for a symlink, its target).

    Raises OSError unless each path's parent directory exists (for a
    symlink, also that of the file it names) and the path is neither a
    directory nor a symlink loop, which `os.stat` reports naming the
    path, and unless no path names the command's input ``source`` and no
    two paths name one file (one resolved target, or for existing files
    `os.path.samefile`), naming both."""
    def same(a, b):
        return a == b or (a.exists() and b.exists() and a.samefile(b))

    source_file, targets = Path(source).resolve(), []
    for path in map(Path, paths):
        # a loop, which `Path.resolve` raises as RuntimeError before
        # Python 3.13 and from 3.13 on leaves unresolved
        with contextlib.suppress(FileNotFoundError, NotADirectoryError):
            path.stat()
        target = path.resolve()
        for parent in (path.parent, target.parent):
            if not parent.is_dir():
                raise FileNotFoundError(
                    f"parent directory {parent} does not exist")
        if path.is_dir():
            raise IsADirectoryError(f"output {path} is a directory")
        if same(source_file, target):
            raise OSError(f"input {source} and output {path} name one file")
        for other, seen in zip(paths, targets):
            if same(seen, target):
                raise OSError(f"outputs {other} and {path} name one file")
        targets.append(target)
    return targets


def _write_csv(path, tables, columns=COLUMNS):
    """Header, then the "%.17g" rows of each table in turn, a table per
    write through one row format: tables of a run's blocks, 128 rows at
    most, so no text of a whole run is formed."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for table in tables:
            fh.write((row * len(table)) % tuple(table.ravel().tolist()))


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _telemetry(traj, metrics):
    """The CSV's columns (COLUMNS) of a block's record."""
    return np.column_stack([
        traj.times,
        traj.R.reshape(len(traj), 9),
        traj.R_d.reshape(len(traj), 9),
        traj.Omega, traj.OmegaR,
        np.mod(traj.Theta, 2.0 * np.pi),
        traj.u_int,
        metrics.psi_e, metrics.geo_err, metrics.ecl,
        metrics.momentum_drift_series,
    ])


def _run_with_writer(cfg, outs):
    """Run cfg's closed loop, a reading `stream.child` writing its CSV and
    sidecar to the two files ``outs`` (as `_check_outputs` resolves them,
    so a symlink's target is replaced): `block_records` of each block,
    the run's one post-pass, and the sidecar's scalars folded as they
    come.  Each goes to a temporary dot-name, created here with the mode
    `open` gives, that replaces it once both have succeeded; a failure
    removes the temporaries this process created, never a file whose name
    it found taken."""
    tmps = []

    def tables(blocks, folded):
        # set up once the first block has come, not while the run starts
        blocks = itertools.chain([next(blocks)], blocks)
        worst = (-math.inf,) * 3
        for traj, metrics in block_records(cfg, blocks):
            worst = tuple(map(max, worst, (metrics.momentum_drift,
                                           metrics.ortho_drift,
                                           float(metrics.psi_e.max()))))
            yield _telemetry(traj, metrics)
        folded.update(worst=worst, last=metrics)

    def write(blocks):
        try:
            folded = {}
            _write_csv(tmps[0], tables(blocks, folded))
            _write_json(tmps[1], _metadata(cfg, **folded))
        except BaseException:
            for tmp in tmps:
                os.unlink(tmp)
            raise

    try:
        for path in outs:
            tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}")
            os.close(os.open(tmp, os.O_CREAT | os.O_EXCL, 0o666))
            tmps.append(tmp)
        with contextlib.closing(closed_loop_blocks(cfg)) as blocks, \
                child(write, child_reads=True,
                      what="telemetry writer") as feed:
            feed(blocks)
        for tmp, path in zip(tmps, outs):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):   # the writer's
                os.unlink(tmp)
        raise


def _feasibility_json(verdict):
    return {
        "feasible": bool(verdict.feasible),
        "kp_floor": verdict.kp_floor,
        "ki_bound": verdict.ki_bound,
        "kp_floor_any_kappa": verdict.kp_floor_any_kappa,
        "checks": {name: {"lhs": float(lhs), "rhs": float(rhs), "ok": bool(ok)}
                   for name, (lhs, rhs, ok) in verdict.checks.items()},
    }


def _metadata(cfg, worst, last):
    """A run's sidecar: ``worst`` its largest momentum and orthogonality
    drifts and psi, ``last`` its last block's metrics; a run that
    succeeds has every sample of its integrator."""
    g = cfg.gains
    i_plant = cfg.plant.params.body_inertia
    return {
        "schema": {"columns": COLUMNS, "version": 1},
        "samples": cfg.integrator.n_steps + 1,
        "gains": {"kp": g.kp, "kd": g.kd, "ki": g.ki, "kappa": g.kappa,
                  "sigma": g.sigma, "alpha": g.alpha, "beta": g.beta,
                  "tau": g.tau, "delta": g.delta, "mu_hess": g.mu_hess,
                  "lambda_sup": g.lambda_sup,
                  "mu_hess_formula": mu_hess_formula(i_plant),
                  "lambda_sup_formula": lambda_sup_formula(i_plant)},
        "feasibility": _feasibility_json(gain_feasible(g)),
        "conservation": {"momentum_drift": worst[0],
                         "orthogonality_drift": worst[1]},
        "tracking": {"psi_final": float(last.psi_e[-1]),
                     "geo_err_final": float(last.geo_err[-1]),
                     "psi_max": worst[2]},
        "integrator": {"scheme": cfg.integrator.scheme,
                       "step": cfg.integrator.step,
                       "duration": cfg.integrator.duration,
                       "reproject": cfg.integrator.reproject},
        "config": serialize_config(cfg),
    }


def cmd_simulate(config_path, out_path):
    """Run the closed loop and write telemetry CSV + JSON sidecar."""
    cfg = load_config(config_path)
    out = Path(out_path)
    meta = out.with_suffix(".meta.json")
    _run_with_writer(cfg, _check_outputs(config_path, out, meta))
    print(f"wrote {out} ({cfg.integrator.n_steps + 1} rows) and {meta}")
    return 0


def _print_gain_report(gains, i_plant):
    verdict = gain_feasible(gains)
    q = q_matrix(gains)
    minors = (q[0, 0], np.linalg.det(q[:2, :2]), np.linalg.det(q))
    print(f"gains: kp={gains.kp:.6g} kd={gains.kd:.6g} ki={gains.ki:.6g} "
          f"kappa={gains.kappa:.6g}")
    print(f"derived: alpha={gains.alpha:.6g} beta={gains.beta:.6g} "
          f"tau={gains.tau:.6g} delta={gains.delta:.6g} sigma={gains.sigma:.6g}")
    print(f"bounds: mu_hess={gains.mu_hess:.6g} (eigenvalue formula gives "
          f"{mu_hess_formula(i_plant):.6g}), lambda_sup={gains.lambda_sup:.6g} "
          f"(formula gives {lambda_sup_formula(i_plant):.6g})")
    print("Q matrix:")
    for row in q:
        print("   [" + "  ".join(f"{x: .6g}" for x in row) + "]")
    print(f"principal minors: {minors[0]:.6g}, {minors[1]:.6g}, {minors[2]:.6g}")
    print(f"kp floor: {verdict.kp_floor:.6g} "
          f"(over all admissible kappa: >= {verdict.kp_floor_any_kappa:.6g})")
    print(f"ki bound: {verdict.ki_bound:.6g}")
    for name, (lhs, rhs, ok) in verdict.checks.items():
        print(f"  {name}: {lhs:.6g} vs {rhs:.6g} -> {'ok' if ok else 'FAIL'}")
    print(f"verdict: {'feasible' if verdict.feasible else 'infeasible'}")
    return verdict


def cmd_tune_gains(config_path, synthesize=False):
    """Report the certification inequalities; optionally synthesize gains."""
    cfg = load_config(config_path)
    i_plant = cfg.plant.params.body_inertia
    print("== configured gains ==")
    _print_gain_report(cfg.gains, i_plant)
    if synthesize:
        print("== synthesized gains ==")
        _print_gain_report(synthesize_gains(i_plant, kd=cfg.gains.kd),
                           i_plant)
    return 0


def cmd_compare(config_path, out_dir):
    """Run proposed vs integral-free baseline; write effort CSVs + summary."""
    cfg = load_config(config_path)
    out = target = Path(out_dir)
    efforts = [out / f"effort_{name}.csv" for name in ("proposed", "baseline")]
    if out.is_dir():
        _check_outputs(config_path, *efforts, out / "summary.json")
    elif out.exists():
        raise NotADirectoryError(f"output {out} is not a directory")
    else:
        target, = _check_outputs(config_path, out)   # a symlink's target
    cmp_result = compare_efforts(cfg)
    target.mkdir(exist_ok=True)   # only once the run has succeeded

    step, n = cmp_result.step, len(cmp_result.proposed)
    for path, effort in zip(efforts, (cmp_result.proposed,
                                      cmp_result.baseline)):
        # tables of 128 rows, as `simulate` writes its blocks
        tables = (np.column_stack([step * np.arange(s, min(s + 128, n)),
                                   effort[s:s + 128]])
                  for s in range(0, n, 128))
        _write_csv(path, tables, ("t", "uint_norm", "uext_norm"))
    summary = {
        "proposed_integral": cmp_result.proposed_integral,
        "baseline_integral": cmp_result.baseline_integral,
        "ratio": cmp_result.proposed_integral / cmp_result.baseline_integral
        if cmp_result.baseline_integral else None,   # null: no baseline effort
    }
    _write_json(out / "summary.json", summary)
    print(f"wrote {out}/effort_proposed.csv, {out}/effort_baseline.csv, "
          f"{out}/summary.json")
    return 0


def _load_csv(csv_path):
    """Columns by name; the header must be COLUMNS, each field finite."""
    with open(csv_path, encoding="utf-8") as fh:
        try:
            if fh.readline().rstrip("\n") != ",".join(COLUMNS):
                raise SchemaMismatchError("CSV columns do not match the "
                                          f"telemetry schema ({csv_path})")
            with warnings.catch_warnings():   # a file without rows warns
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:   # not UTF-8, or a field not a number
            raise SchemaMismatchError(str(exc)) from None
    if data.size == 0:
        raise SchemaMismatchError(f"CSV has no data rows ({csv_path})")
    if data.shape[1] != len(COLUMNS) or not np.isfinite(data).all():
        raise SchemaMismatchError(f"CSV rows are not {len(COLUMNS)} finite "
                                  f"numbers ({csv_path})")
    return dict(zip(COLUMNS, data.T))


def cmd_plot(csv_path, out_svg, entries=(11, 12, 21, 22)):
    """Render attitude-entry overlays, psi decay and effort norms to SVG."""
    data = _load_csv(csv_path)
    t = data["t"]
    panels = []
    for entry in entries:
        i, j = divmod(entry, 10)
        panels.append(Panel(
            title=f"attitude entry ({i},{j})", xlabel="t [s]",
            ylabel=f"R{i}{j}",
            series=[Series(t, data[f"Rd{i}{j}"], "reference", _REFERENCE_COLOR),
                    Series(t, data[f"R{i}{j}"], "plant", _PLANT_COLOR)]))
    out = Path(out_svg)
    psi_out = out.with_name(out.stem + "_psi" + out.suffix)
    effort_out = out.with_name(out.stem + "_effort" + out.suffix)
    _check_outputs(csv_path, out, psi_out, effort_out)
    write_svg(out, panels)

    write_svg(psi_out, [Panel(title="navigation error", xlabel="t [s]",
                              ylabel="psi(E)",
                              series=[Series(t, data["psi_E"], "psi(E)",
                                             _PLANT_COLOR)])])
    with np.errstate(over="ignore"):   # capped past the float range
        effort = np.minimum(np.hypot(np.hypot(data["uint1"], data["uint2"]),
                                     data["uint3"]), np.finfo(float).max)
    write_svg(effort_out, [Panel(title="rotor torque magnitude",
                                 xlabel="t [s]", ylabel="|u_int| [N m]",
                                 series=[Series(t, effort, "|u_int|",
                                                _PLANT_COLOR)])])
    print(f"wrote {out}, {psi_out}, {effort_out}")
    return 0


def _entries(text):
    """``--entries``: comma-separated attitude matrix entries ij with i
    and j in 1..3, as integers."""
    entries = [e.strip() for e in text.split(",")]
    if not all(len(e) == 2 and set(e) <= set("123") for e in entries):
        raise argparse.ArgumentTypeError(f"bad matrix entries '{text}'")
    return tuple(map(int, entries))


def cmd_check(config_path):
    """Validate a config file and print a short summary."""
    cfg = load_config(config_path)   # resolved, reference rotor rate too
    verdict = gain_feasible(cfg.gains)
    print(f"config ok: program={cfg.program.kind}, "
          f"step={cfg.integrator.step:g} s, "
          f"duration={cfg.integrator.duration:g} s, "
          f"gains {'feasible' if verdict.feasible else 'infeasible'}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gyrotrack",
        description="Attitude tracking for a rigid body with internal "
                    "reaction rotors.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario, write telemetry CSV")
    p.add_argument("config")
    p.add_argument("-o", "--output", required=True, metavar="CSV")

    p = sub.add_parser("tune-gains", help="evaluate gain certification")
    p.add_argument("config")
    p.add_argument("--synthesize", action="store_true",
                   help="also derive a feasible gain set")

    p = sub.add_parser("compare", help="effort comparison vs PD baseline")
    p.add_argument("config")
    p.add_argument("-o", "--output", required=True, metavar="DIR")

    p = sub.add_parser("plot", help="render telemetry CSV to SVG files")
    p.add_argument("csv")
    p.add_argument("-o", "--output", required=True, metavar="SVG")
    p.add_argument("--entries", type=_entries, default="11,12,21,22",
                   help="comma-separated attitude matrix entries (e.g. 11,12)")

    p = sub.add_parser("check", help="validate a scenario config")
    p.add_argument("config")
    return parser


def main(argv=None):
    """Run one subcommand; the only place errors become exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, args.output)
        if args.command == "tune-gains":
            return cmd_tune_gains(args.config, synthesize=args.synthesize)
        if args.command == "compare":
            return cmd_compare(args.config, args.output)
        if args.command == "plot":
            return cmd_plot(args.csv, args.output, args.entries)
        return cmd_check(args.config)
    except DivergedStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GyrotrackError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:   # compare's effort columns do not fit
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
