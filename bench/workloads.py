"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``prepare``, runs one
operation in ``call`` (the only part that is timed) and checks that
operation's outputs in ``check``.  Operations run in the benchmark's own
process, one after another: a closed loop with one client.

* ``track_single``: one ``gyrotrack simulate`` of the bundled scenario
  over a 1 s horizon, writing its telemetry CSV and ``.meta.json``; the
  plant's initial attitude is drawn from the seed.
* ``sweep_short``: one 1 s closed loop through ``run_closed_loop`` with
  certified gains; initial errors are uniform on SO(3), every fifth one
  within 1e-3 rad of pi, and the three torque programs take turns.  Only
  the run's summary is looked at; nothing is written.
* ``plot_telemetry``: one ``gyrotrack plot`` of a 2 s telemetry CSV that
  ``gyrotrack simulate`` wrote during set-up.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np

import checks

# The bundled benchmark scenario (configs/benchmark_zero.cfg) with the
# plant's initial attitude and the horizon left open.  Kept here so that
# the benchmark's inputs do not change when the repository's examples do.
SCENARIO = """\
plant.I = 4 1 1 1 5.2 2 1 2 6.3
plant.K = 5 6 7
plant.R0 = {r0}
plant.Theta0 = 0 0 0
plant.IOmega0 = 1 2.2 5.1
plant.OmegaR0 = 0.5 1.9 1.5
reference.I = 1 0 0 0 1.2 0 0 0 2
reference.K = 4 3 2
reference.R0 = 1 0 0 0 1 0 0 0 1
reference.Theta0 = 0 0 0
reference.IOmega0 = -0.8 -0.3 -0.5
reference.OmegaR0 = derive
reference.program = zero
reference.amplitude = 0.0 0.0 0.0
weights.P = 1 0 0 0 1 0 0 0 1
gains.kp = 1
gains.kd = 3
gains.ki = 1
gains.kappa = 0.6
gains.mu_hess = 2.0048
gains.lambda_sup = 1.42
integrator.scheme = rk4_munthe_kaas
integrator.step = {step!r}
integrator.duration = {duration!r}
integrator.reproject = true
"""
STEP = 1e-3
# A thirtieth of the bundled 30 s horizon, so that one operation takes
# about half a second and a run holds dozens.  The host's speed changes
# within a second; the longer an operation, the less the reference
# measurements around it tell of the speed it ran at.
TRACK_DURATION = 1.0
TELEMETRY_DURATION = 2.0
SWEEP_DURATION = 1.0
SELFTEST_DURATION = 0.02
PROGRAMS = ("zero", "constant", "sinusoid")


def n_steps(duration):
    return int(round(duration / STEP))


def scenario_text(r0, duration):
    return SCENARIO.format(r0=" ".join(repr(float(x)) for x in np.ravel(r0)),
                           step=STEP, duration=duration)


def axis_angle(axis, angle):
    """Rodrigues formula, written out so that inputs do not depend on the
    code under test."""
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def haar_rotation(rng):
    """A rotation drawn uniformly on SO(3) (normalized Gaussian quaternion)."""
    w, x, y, z = rng.standard_normal(4)
    s = 2.0 / (w * w + x * x + y * y + z * z)
    return np.array([
        [1 - s * (y * y + z * z), s * (x * y - z * w), s * (x * z + y * w)],
        [s * (x * y + z * w), 1 - s * (x * x + z * z), s * (y * z - x * w)],
        [s * (x * z - y * w), s * (y * z + x * w), 1 - s * (x * x + y * y)],
    ])


def near_pi_rotation(rng):
    """A rotation by pi - U(0, 1e-3) about a uniformly drawn axis."""
    axis = rng.standard_normal(3)
    return axis_angle(axis / np.linalg.norm(axis),
                      np.pi - rng.uniform(0.0, 1e-3))


def selftest_inputs():
    """A short scenario and a copy whose initial attitude has drift injected.

    The drifted attitude is scaled by 1 + 1e-6, an orthogonality defect
    of about 3.5e-6, far above the 1e-9 limit.
    """
    r0 = haar_rotation(np.random.default_rng(0))
    return (scenario_text(r0, SELFTEST_DURATION), n_steps(SELFTEST_DURATION),
            scenario_text(r0 * (1.0 + 1e-6), SELFTEST_DURATION))


class TrackSingle:
    name = "track_single"
    prepare_repeats = 3
    pool = 4

    def __init__(self, gyro, work):
        self.cli = gyro["cli"]
        self.work = work
        self.csv = work / "track.csv"
        self.meta = self.csv.with_suffix(".meta.json")

    def prepare(self, seed):
        rng = np.random.default_rng([seed, 1])
        inputs = []
        for k in range(self.pool):
            path = self.work / f"track{k}.cfg"
            path.write_text(scenario_text(haar_rotation(rng), TRACK_DURATION),
                            encoding="utf-8")
            inputs.append(path)
        return inputs

    def call(self, cfg_path):
        with checks.quiet():
            return self.cli.main(["simulate", str(cfg_path),
                                  "-o", str(self.csv)])

    def check(self, cfg_path, rc):
        if rc != 0:
            return [f"simulate exited with code {rc}"]
        return (checks.csv_file(self.csv, self.cli.COLUMNS,
                                n_steps(TRACK_DURATION) + 1)
                + checks.meta_file(self.meta))

    def steps(self, cfg_path):
        return n_steps(TRACK_DURATION)

    def io_bytes(self):
        return {"cli.output_bytes": _size(self.csv) + _size(self.meta)}


class SweepShort:
    name = "sweep_short"
    prepare_repeats = 3
    pool = 256

    def __init__(self, gyro, work):
        self.scenario = gyro["scenario"]

    def prepare(self, seed):
        rng = np.random.default_rng([seed, 2])
        gains = self.scenario.certified_gains()
        inputs = []
        for k in range(self.pool):
            r0 = near_pi_rotation(rng) if k % 5 == 4 else haar_rotation(rng)
            cfg = self.scenario.benchmark_config(
                PROGRAMS[k % len(PROGRAMS)], gains=gains,
                duration=SWEEP_DURATION)
            inputs.append(dataclasses.replace(
                cfg, plant=dataclasses.replace(cfg.plant, R0=r0)))
        return inputs

    def call(self, cfg):
        # looked up on the module at call time, so a traced run sees it
        return self.scenario.run_closed_loop(cfg)

    def check(self, cfg, result):
        _, metrics = result
        problems = checks.conservation(metrics.momentum_drift,
                                       metrics.ortho_drift)
        if len(metrics.psi_e) != cfg.integrator.n_steps + 1:
            problems.append(f"{len(metrics.psi_e)} samples, expected "
                            f"{cfg.integrator.n_steps + 1}")
        return problems

    def steps(self, cfg):
        return cfg.integrator.n_steps

    def io_bytes(self):
        return {}


class PlotTelemetry:
    name = "plot_telemetry"
    prepare_repeats = 3

    def __init__(self, gyro, work):
        self.cli = gyro["cli"]
        self.work = work
        self.csv = work / "telemetry.csv"
        self.svg = work / "plot.svg"

    def prepare(self, seed):
        """Write the telemetry CSV with ``gyrotrack simulate``, in a child
        process so that its memory does not count towards the plots'."""
        rng = np.random.default_rng([seed, 3])
        cfg = self.work / "telemetry.cfg"
        cfg.write_text(scenario_text(haar_rotation(rng), TELEMETRY_DURATION),
                       encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "gyrotrack.cli", "simulate", str(cfg),
             "-o", str(self.csv)],
            capture_output=True, text=True, timeout=150, env=os.environ)
        if proc.returncode:
            raise RuntimeError(f"set-up simulate exited with code "
                               f"{proc.returncode}: {proc.stderr.strip()}")
        problems = (checks.csv_file(self.csv, self.cli.COLUMNS,
                                    n_steps(TELEMETRY_DURATION) + 1)
                    + checks.meta_file(self.csv.with_suffix(".meta.json")))
        if problems:
            raise RuntimeError("set-up telemetry is wrong: "
                               + "; ".join(problems))
        return [self.csv]

    def call(self, csv):
        with checks.quiet():
            return self.cli.main(["plot", str(csv), "-o", str(self.svg)])

    def check(self, csv, rc):
        if rc != 0:
            return [f"plot exited with code {rc}"]
        return checks.svg_files(checks.plot_outputs(self.svg))

    def steps(self, csv):
        return 0

    def io_bytes(self):
        return {"cli.input_bytes": _size(self.csv),
                "svgplot.bytes": sum(_size(p) for p in
                                     checks.plot_outputs(self.svg))}


def _size(path):
    try:
        return path.stat().st_size
    except OSError:
        return 0


WORKLOADS = {w.name: w for w in (TrackSingle, SweepShort, PlotTelemetry)}
