import contextlib
import errno
import hashlib
import itertools
import json
import os
import re
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gyrotrack import cli, scenario, stream
from gyrotrack.cli import COLUMNS, _load_csv, main
from gyrotrack.config import load_config, parse_config, serialize_config
from gyrotrack.control import control_uext, control_uint
from gyrotrack.errors import ConfigParseError
from gyrotrack.so3 import expm

REPO = Path(__file__).resolve().parent.parent
ZERO_CFG = REPO / "configs" / "benchmark_zero.cfg"

GOLDEN_HEADER = (
    "t,R11,R12,R13,R21,R22,R23,R31,R32,R33,"
    "Rd11,Rd12,Rd13,Rd21,Rd22,Rd23,Rd31,Rd32,Rd33,"
    "Omega1,Omega2,Omega3,OmegaR1,OmegaR2,OmegaR3,Theta1,Theta2,Theta3,"
    "uint1,uint2,uint3,psi_E,geo_err,E_cl,momentum_drift"
)

# Hand-written telemetry: negative entries, times whose pixel x lands
# exactly on a .xx5 tie (56.125, 57.375, 356.625) and a constant effort
# |(3, 4, 0)| = 5 that takes the flat-range branch of the y axis.
PINNED_ROWS = [
    "0,1,0,0,0,1,0,0,0,1,0.6,-0.8,0,0.8,0.6,0,0,0,1,"
    "0.5,-0.25,0.125,0,0,0,0,0,0,3,4,0,2,1.5,10,0",
    "0.125,0.96,-0.28,0,0.28,0.96,0,0,0,1,0.28,-0.96,0,0.96,0.28,0,0,0,1,"
    "0.25,-0.125,0.0625,1,-2,0.5,0.1,6.2,3,3,4,0,1.005,1.25,8.5,1e-12",
    "1.375,0.6,-0.8,0,0.8,0.6,0,0,0,1,-0.6,-0.8,0,0.8,-0.6,0,0,0,1,"
    "-0.125,0.0625,0,2,-4,1,0.2,6.1,3.1,3,4,0,0.125,0.5,4.25,-2e-12",
    "300.625,0,-1,0,1,0,0,0,0,1,-1,0,0,0,-1,0,0,0,1,"
    "-0.5,0.25,-0.125,3,-6,1.5,0.3,6,3.2,3,4,0,0.015,0.1,1.125,3e-12",
    "648,-0.5,-0.5,0.70710678118654757,0.5,0.5,0.70710678118654757,"
    "-0.70710678118654757,0.70710678118654757,0,-0.8,0.6,0,-0.6,-0.8,0,"
    "0,0,1,-1,0.5,-0.25,4,-8,2,0.4,5.9,3.3,3,4,0,0.005,0.0125,0,0",
]

# sha256 of the three SVGs `plot` writes for PINNED_ROWS, recorded with
# the per-point polyline formatting and the genfromtxt reader
PINNED_SVG_SHA256 = {
    "pinned.svg":
        "2a1977acd8a8806d7684643d85a3b38f7fc8d70d8bbac230de03415d1b82b0b5",
    "pinned_psi.svg":
        "cdec619d9f04a76ec7e6978df466d34085f4ebfecbcfa39ac097bbebaa717a07",
    "pinned_effort.svg":
        "20e06deb8085bf71f6599a27a19bcda0d3103f894c7fb2a434c7219acfe2a003",
}


def write_telemetry(path, rows, newline="\n"):
    path.write_bytes(newline.join([GOLDEN_HEADER, *rows, ""]).encode())
    return path


def svg_digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (out, out.with_name(out.stem + "_psi.svg"),
                      out.with_name(out.stem + "_effort.svg"))}


def write_short_config(tmp_path, duration="1", extra=()):
    text = ZERO_CFG.read_text().replace("integrator.duration = 30",
                                        f"integrator.duration = {duration}")
    for old, new in extra:
        text = text.replace(old, new)
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return path


def never_integrate(*args, **kwargs):
    raise AssertionError("integrated before checking the output path")


def _vector(low, high):
    return arrays(np.float64, 3, elements=st.floats(low, high))


@st.composite
def config_texts(draw):
    """Scenario text over both bodies, every program kind and optional
    keys; numbers are written as repr floats."""
    def line(key, values):
        return f"{key} = " + " ".join(
            repr(float(x)) for x in np.ravel(values))

    lines, omega_keys = [], ["Omega0", "IOmega0"]
    for section in ("plant", "reference"):
        q = expm(draw(_vector(-4.0, 4.0)))
        inertia = q @ np.diag(draw(_vector(0.5, 10.0))) @ q.T
        lines += [line(f"{section}.I", 0.5 * (inertia + inertia.T)),
                  line(f"{section}.K", draw(_vector(0.1, 10.0))),
                  line(f"{section}.R0", expm(draw(_vector(-4.0, 4.0)))),
                  line(f"{section}.{draw(st.sampled_from(omega_keys))}",
                       draw(_vector(-5.0, 5.0)))]
        if draw(st.booleans()):
            lines.append(line(f"{section}.Theta0", draw(_vector(0.0, 6.0))))
        if section == "reference" and draw(st.booleans()):
            lines.append("reference.OmegaR0 = derive")
        else:
            lines.append(line(f"{section}.OmegaR0", draw(_vector(-5.0, 5.0))))
    lines.append("reference.program = "
                 + draw(st.sampled_from(scenario.PROGRAM_KINDS)))
    if draw(st.booleans()):
        lines.append(line("reference.amplitude", draw(_vector(-2.0, 2.0))))
    for key in ("kp", "kd", "ki"):
        lines.append(line(f"gains.{key}", draw(st.floats(0.01, 50.0))))
    if draw(st.booleans()):
        mu = draw(st.floats(0.5, 10.0))
        lines.append(line("gains.mu_hess", mu))
        if draw(st.booleans()):
            lines.append(line("gains.kappa",
                              draw(st.floats(1.01, 1.99)) / mu))
    if draw(st.booleans()):
        lines.append(line("gains.lambda_sup", draw(st.floats(0.1, 5.0))))
    lines += ["integrator.step = 0.001", "integrator.duration = 1"]
    return "\n".join(draw(st.permutations(lines))) + "\n"


@pytest.fixture(scope="session")
def bundled_run(tmp_path_factory):
    """One full 30 s simulate of the bundled zero-torque config."""
    out = tmp_path_factory.mktemp("bundled") / "telemetry.csv"
    assert main(["simulate", str(ZERO_CFG), "-o", str(out)]) == 0
    return out


class TestConfigFormat:
    def test_bundled_configs_parse(self):
        for name in ("benchmark_zero.cfg", "benchmark_constant.cfg",
                     "benchmark_sinusoid.cfg"):
            cfg = load_config(REPO / "configs" / name)
            assert cfg.integrator.duration == 30.0

    def test_roundtrip_idempotent(self):
        text = ZERO_CFG.read_text()
        once = serialize_config(parse_config(text))
        twice = serialize_config(parse_config(once))
        assert once == twice

    @settings(max_examples=60, deadline=None)
    @given(text=config_texts())
    def test_roundtrip_idempotent_generated(self, text):
        once = serialize_config(parse_config(text))
        assert serialize_config(parse_config(once)) == once

    @pytest.mark.parametrize("program", scenario.PROGRAM_KINDS)
    def test_bundled_config_is_benchmark_config(self, program):
        # criteria 1-5 run benchmark_config, the CLI and criterion 8 the files
        cfg = load_config(REPO / "configs" / f"benchmark_{program}.cfg")
        assert serialize_config(cfg) == \
            serialize_config(scenario.benchmark_config(program))

    def test_parse_resolves_momentum_seed(self):
        cfg = parse_config(ZERO_CFG.read_text())
        assert np.allclose(scenario.BENCHMARK_PLANT_I @ cfg.plant.Omega0,
                           [1.0, 2.2, 5.1], atol=1e-12)

    def test_parse_resolves_derived_rotor_rate(self):
        cfg = parse_config(ZERO_CFG.read_text())
        assert cfg.reference.OmegaR0 is not None
        mu = scenario.plant_spatial_momentum(cfg.plant)
        back = cfg.reference.R0 @ (
            cfg.reference.params.locked @ cfg.reference.Omega0
            + cfg.reference.params.rotor_inertia * cfg.reference.OmegaR0)
        assert np.abs(back - mu).max() < 1e-12

    def test_unknown_key_named(self):
        with pytest.raises(ConfigParseError, match="plant.J"):
            parse_config("plant.J = 1\n")

    def test_line_without_equals_named(self):
        text = ZERO_CFG.read_text().replace("plant.K = 5 6 7", "plant.K 5 6 7")
        with pytest.raises(ConfigParseError) as err:
            parse_config(text)
        assert (err.value.key, err.value.line) == (None, 4)
        assert str(err.value) == "expected 'key = value' (line 4)"

    def test_missing_key_named(self):
        with pytest.raises(ConfigParseError, match="plant.I"):
            parse_config("gains.kp = 1\n")

    def test_wrong_arity_named(self):
        text = ZERO_CFG.read_text().replace(
            "plant.K = 5 6 7", "plant.K = 5 6")
        with pytest.raises(ConfigParseError, match="plant.K"):
            parse_config(text)

    def test_number_parse_error_named(self):
        text = ZERO_CFG.read_text().replace(
            "gains.kp = 1", "gains.kp = one")
        with pytest.raises(ConfigParseError, match="gains.kp"):
            parse_config(text)

    def test_exactly_one_omega_form(self):
        text = ZERO_CFG.read_text() + "plant.Omega0 = 1 0 0\n"
        with pytest.raises(ConfigParseError, match="Omega0"):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        text = ZERO_CFG.read_text() + "gains.kp = 2\n"
        with pytest.raises(ConfigParseError, match="duplicate"):
            parse_config(text)

    def test_kappa_out_of_range_named(self):
        text = ZERO_CFG.read_text().replace("gains.kappa = 0.6",
                                            "gains.kappa = 5")
        with pytest.raises(ConfigParseError) as err:
            parse_config(text)
        assert err.value.key == "gains.kappa"

    # one edit per validated key, whether the text check or a record
    # rejects it; the error names the key and the line that holds it
    @pytest.mark.parametrize("old, new, key", [
        ("plant.K = 5 6 7", "plant.K = 0 6 7", "plant.K"),
        ("reference.K = 4 3 2", "reference.K = 4 -3 2", "reference.K"),
        ("plant.I = 4 1 1 1 5.2 2 1 2 6.3", "plant.I = 4 1 1 1 -5.2 2 1 2 6.3",
         "plant.I"),
        ("reference.I = 1 0 0 0 1.2 0 0 0 2",
         "reference.I = 1 0 0 1 1.2 0 0 0 2", "reference.I"),
        ("plant.R0 = 0.36 0.48 -0.8 -0.8 0.6 0 0.48 0.64 0.6",
         "plant.R0 = 1 0 0 0 1 0 0 0 -1", "plant.R0"),
        ("reference.R0 = 1 0 0 0 1 0 0 0 1",
         "reference.R0 = 2 0 0 0 2 0 0 0 2", "reference.R0"),
        ("plant.IOmega0 = 1 2.2 5.1", "plant.Omega0 = 1 2.2 nan",
         "plant.Omega0"),
        ("reference.IOmega0 = -0.8 -0.3 -0.5", "reference.Omega0 = 1e999 0 0",
         "reference.Omega0"),
        ("plant.IOmega0 = 1 2.2 5.1", "plant.IOmega0 = 1 2.2",
         "plant.IOmega0"),
        ("reference.IOmega0 = -0.8 -0.3 -0.5",
         "reference.IOmega0 = -0.8 x -0.5", "reference.IOmega0"),
        ("plant.OmegaR0 = 0.5 1.9 1.5", "plant.OmegaR0 = derive",
         "plant.OmegaR0"),
        # the momentum that derives the reference rotor rate overflows
        ("plant.IOmega0 = 1 2.2 5.1", "plant.IOmega0 = 1e308 -1e308 1e308",
         "reference.OmegaR0"),
        ("plant.Theta0 = 0 0 0", "plant.Theta0 = 0 0 inf", "plant.Theta0"),
        ("reference.Theta0 = 0 0 0", "reference.Theta0 = 0 0",
         "reference.Theta0"),
        ("weights.P = 1 0 0 0 1 0 0 0 1", "weights.P = 1 0 0 0 -1 0 0 0 1",
         "weights.P"),
        ("gains.kp = 1", "gains.kp = 0", "gains.kp"),
        ("gains.kd = 3", "gains.kd = 0", "gains.kd"),
        ("gains.ki = 1", "gains.ki = -1", "gains.ki"),
        ("gains.kappa = 0.6", "gains.kappa = 5", "gains.kappa"),
        ("gains.mu_hess = 2.0048", "gains.mu_hess = -1", "gains.mu_hess"),
        ("gains.lambda_sup = 1.42", "gains.lambda_sup = 0",
         "gains.lambda_sup"),
        ("gains.kd = 3", "gains.kd = ", "gains.kd"),   # an empty value
        # a word outside its set
        ("integrator.scheme = rk4_munthe_kaas", "integrator.scheme = rk5",
         "integrator.scheme"),
        ("integrator.step = 0.001", "integrator.step = 0", "integrator.step"),
        ("integrator.duration = 30", "integrator.duration = 1e308",
         "integrator.duration")])
    def test_inertia_error_named(self, old, new, key):
        text = ZERO_CFG.read_text()
        assert old in text
        text = text.replace(old, new)
        line = next(n for n, entry in enumerate(text.splitlines(), start=1)
                    if entry.startswith(f"{key} = "))
        with pytest.raises(ConfigParseError) as err:
            parse_config(text)
        assert (err.value.key, err.value.line) == (key, line)

    def test_nonpositive_mu_rejected(self):
        # also with no kappa, whose default is placed from mu_hess
        text = ZERO_CFG.read_text()
        for old, new in [("gains.mu_hess = 2.0048", "gains.mu_hess = -1"),
                         ("gains.kappa = 0.6\ngains.mu_hess = 2.0048",
                          "gains.mu_hess = 0")]:
            assert old in text
            with pytest.raises(ConfigParseError) as err:
                parse_config(text.replace(old, new))
            assert err.value.key == "gains.mu_hess"

    def test_non_finite_rate_named(self):
        text = ZERO_CFG.read_text().replace(
            "plant.OmegaR0 = 0.5 1.9 1.5", "plant.OmegaR0 = nan 1.9 1.5")
        with pytest.raises(ConfigParseError, match="finite") as err:
            parse_config(text)
        assert err.value.key == "plant.OmegaR0"

    @pytest.mark.parametrize("section", ["plant", "reference"])
    @pytest.mark.parametrize("scale", [
        np.full(3, 2.0), np.array([1.0, 1.0, -1.0]), np.full(3, 1.0 + 1e-6)],
        ids=["twice identity", "reflection", "scaled rotation"])
    def test_non_rotation_attitude_rejected(self, section, scale, tmp_path):
        rotation = scenario.BENCHMARK_PLANT_R0 if section == "plant" \
            else np.eye(3)
        r0 = " ".join(repr(x) for x in (rotation * scale).ravel().tolist())
        text = re.sub(rf"^{section}\.R0 = .*$", f"{section}.R0 = {r0}",
                      ZERO_CFG.read_text(), flags=re.MULTILINE)
        with pytest.raises(ConfigParseError) as err:
            parse_config(text)
        assert err.value.key == f"{section}.R0"
        cfg = tmp_path / "bad_attitude.cfg"
        cfg.write_text(text)
        assert main(["check", str(cfg)]) == 1

    def test_optional_bounds_default_to_formulas(self):
        from gyrotrack.control import lambda_sup_formula, mu_hess_formula
        text = "\n".join(
            line for line in ZERO_CFG.read_text().splitlines()
            if not line.startswith(("gains.kappa", "gains.mu_hess",
                                    "gains.lambda_sup")))
        cfg = parse_config(text)
        i = cfg.plant.params.body_inertia
        assert abs(cfg.gains.mu_hess - mu_hess_formula(i)) < 1e-12
        assert abs(cfg.gains.lambda_sup - lambda_sup_formula(i)) < 1e-12


class TestSimulate:
    def test_bundled_zero_row_count(self, bundled_run):
        lines = bundled_run.read_text().splitlines()
        assert len(lines) == 30002          # header + 30001 samples
        assert lines[0] == GOLDEN_HEADER

    def test_metadata_sidecar(self, bundled_run):
        meta = json.loads(bundled_run.with_suffix(".meta.json").read_text())
        assert meta["samples"] == 30001
        assert meta["feasibility"]["feasible"] is False
        assert meta["conservation"]["momentum_drift"] < 1e-6
        assert meta["conservation"]["orthogonality_drift"] < 1e-9
        assert meta["gains"]["mu_hess"] == 2.0048
        assert abs(meta["gains"]["mu_hess_formula"] - 6.8494) < 1e-3
        assert meta["schema"]["columns"] == COLUMNS

    def test_sidecar_psi_max_is_the_largest_psi(self, bundled_run):
        # the sidecar's fold against the CSV's psi_E column, read back
        meta = json.loads(bundled_run.with_suffix(".meta.json").read_text())
        psi = _load_csv(bundled_run)["psi_E"]
        assert meta["tracking"]["psi_max"] == psi.max()
        assert meta["tracking"]["psi_final"] == psi[-1]

    def test_theta_column_wrapped(self, bundled_run):
        data = _load_csv(bundled_run)
        for k in (1, 2, 3):
            col = data[f"Theta{k}"]
            assert col.min() >= 0.0 and col.max() < 2.0 * np.pi

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_short_config(tmp_path)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", str(cfg), "-o", str(out_a)]) == 0
        assert main(["simulate", str(cfg), "-o", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_malformed_config_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(ZERO_CFG.read_text().replace("plant.I =", "plant.J ="))
        assert main(["simulate", str(bad), "-o", str(tmp_path / "x.csv")]) == 1
        assert "plant.J" in capsys.readouterr().err

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.cfg"),
                     "-o", str(tmp_path / "x.csv")]) == 1

    def test_divergence_exit_2(self, tmp_path):
        cfg = write_short_config(
            tmp_path, duration="50",
            extra=[("integrator.step = 0.001", "integrator.step = 1.0"),
                   ("gains.kp = 1", "gains.kp = 500000")])
        assert main(["simulate", str(cfg), "-o", str(tmp_path / "d.csv")]) == 2

    def test_existing_directory_output_exit_1(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.setattr(cli, "closed_loop_blocks", never_integrate)
        cfg = write_short_config(tmp_path, duration="0.1")
        assert main(["simulate", str(cfg), "-o", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_sidecar_is_directory_exit_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "closed_loop_blocks", never_integrate)
        cfg = write_short_config(tmp_path, duration="0.1")
        (tmp_path / "x.meta.json").mkdir()
        assert main(["simulate", str(cfg), "-o", str(tmp_path / "x.csv")]) == 1
        assert "x.meta.json is a directory" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_overflow_from_identity_exit_2(self, tmp_path):
        cfg = write_short_config(
            tmp_path, duration="5",
            extra=[("integrator.step = 0.001", "integrator.step = 1.0"),
                   ("gains.kp = 1", "gains.kp = 500000"),
                   ("plant.R0 = 0.36 0.48 -0.8 -0.8 0.6 0 0.48 0.64 0.6",
                    "plant.R0 = 1 0 0 0 1 0 0 0 1")])
        with np.errstate(all="ignore"):
            assert main(["simulate", str(cfg),
                         "-o", str(tmp_path / "d.csv")]) == 2


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
class TestTelemetryWriter:
    """`simulate`'s CSV writer, forked or in process: the same bytes on
    both paths, nothing left behind when the run or the writer fails, and
    no child process once `main` returns."""

    def test_forked_and_in_process_writes_are_identical(self, tmp_path,
                                                        monkeypatch, capfd):
        # 0.5 s: three full blocks and a last one of 117 rows; both paths
        # format the rows of `block_records`, so the oracle is the CSV of
        # the whole run's record
        cfg = write_short_config(tmp_path, duration="0.5")
        oracle = tmp_path / "oracle.csv"
        cli._write_csv(oracle, [cli._telemetry(
            *scenario.run_closed_loop(load_config(cfg)))])
        outputs = {}
        for forked in (True, False):
            monkeypatch.setattr(stream, "can_fork", lambda: forked)
            out = tmp_path / f"forked_{forked}.csv"
            assert main(["simulate", str(cfg), "-o", str(out)]) == 0
            assert capfd.readouterr() == (
                f"wrote {out} (501 rows) and {out.with_suffix('.meta.json')}"
                "\n", "")
            outputs[forked] = (out.read_bytes(),
                               out.with_suffix(".meta.json").read_bytes())
            assert_no_child()
        assert outputs[True] == outputs[False]
        assert outputs[True][0] == oracle.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "forked_False.csv", "forked_False.meta.json", "forked_True.csv",
            "forked_True.meta.json", "oracle.csv", "scenario.cfg"]

    @pytest.mark.parametrize("forked", [True, False])
    def test_csv_mode_follows_the_umask(self, forked, tmp_path,
                                        monkeypatch):
        # the mode of a file that `open` creates, not the 0600 of a
        # private temporary file
        monkeypatch.setattr(stream, "can_fork", lambda: forked)
        cfg = write_short_config(tmp_path, duration="0.01")
        umask = os.umask(0o027)
        try:
            open(tmp_path / "plain", "w").close()
            assert main(["simulate", str(cfg),
                         "-o", str(tmp_path / "t.csv")]) == 0
        finally:
            os.umask(umask)
        want = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
        assert want == 0o640
        assert stat.S_IMODE((tmp_path / "t.csv").stat().st_mode) == want

    def test_symlinked_output_writes_its_target(self, tmp_path):
        cfg = write_short_config(tmp_path, duration="0.1")
        (tmp_path / "runs").mkdir()
        target = tmp_path / "runs" / "t.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["simulate", str(cfg), "-o", str(link)]) == 0
        assert link.is_symlink()
        assert len(target.read_text().splitlines()) == 102
        assert sorted(p.name for p in target.parent.iterdir()) == ["t.csv"]

    def test_no_fork_beside_another_thread(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("forked beside another thread")

        monkeypatch.setattr(os, "fork", no_fork)
        cfg = write_short_config(tmp_path, duration="0.1")
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert main(["simulate", str(cfg),
                         "-o", str(tmp_path / "t.csv")]) == 0
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert len((tmp_path / "t.csv").read_text().splitlines()) == 102

    def test_divergent_run_leaves_the_directory_as_it_was(self, tmp_path,
                                                          monkeypatch, capfd):
        cfg = write_short_config(
            tmp_path, duration="30",
            extra=[("integrator.step = 0.001", "integrator.step = 0.3")])
        out = tmp_path / "out"
        out.mkdir()
        for forked in (True, False):
            monkeypatch.setattr(stream, "can_fork", lambda: forked)
            assert main(["simulate", str(cfg),
                         "-o", str(out / "d.csv")]) == 2
            assert capfd.readouterr() == (
                "", "error: state diverged at step 4 (t=1.2 s)\n")
            assert list(out.iterdir()) == []
            assert_no_child()

    def test_interrupted_run_leaves_the_directory_as_it_was(self, tmp_path,
                                                            monkeypatch):
        # the run's blocks raise at sample 256, or the writer, their
        # consumer, leaves them after two blocks; forked, the writer has
        # formatted two blocks then, and in process, the run has stopped
        # there
        run, records = scenario.closed_loop_blocks, cli.block_records

        def interrupted(cfg):
            with contextlib.closing(run(cfg)) as blocks:
                for start, block in blocks:
                    if start == 256:
                        raise KeyboardInterrupt
                    yield start, block

        def abandoned(cfg, blocks):
            yield from itertools.islice(records(cfg, blocks), 2)

        cfg = write_short_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        for patch in ({"closed_loop_blocks": interrupted},
                      {"block_records": abandoned}):
            for name, value in patch.items():
                monkeypatch.setattr(cli, name, value)
            for forked in (True, False):
                monkeypatch.setattr(stream, "can_fork", lambda: forked)
                argv = ["simulate", str(cfg), "-o", str(out / "i.csv")]
                if "closed_loop_blocks" in patch:
                    with pytest.raises(KeyboardInterrupt):
                        main(argv)
                else:
                    assert main(argv) == 1
                assert list(out.iterdir()) == []
                assert_no_child()
            monkeypatch.undo()

    def test_killed_run_leaves_the_directory_as_it_was(self, tmp_path):
        # SIGTERM ends the run with no cleanup of its own; the writer, cut
        # off before the run's end mark, removes its temporary file
        cfg = write_short_config(tmp_path, duration="30")
        out = tmp_path / "out"
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "gyrotrack.cli", "simulate", str(cfg),
             "-o", str(out / "k.csv")], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 60
        try:   # until the writer has written rows
            while not any(p.stat().st_size for p in out.iterdir()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
        finally:
            proc.terminate()
        assert proc.wait(timeout=60) == -signal.SIGTERM
        while list(out.iterdir()):
            assert time.monotonic() < deadline
            time.sleep(0.02)

    def test_sidecar_linked_into_a_missing_directory_exit_1(self, tmp_path,
                                                            monkeypatch,
                                                            capfd):
        # the sidecar's path is a symlink to a file in a directory that
        # does not exist: the error names that directory, and nothing is
        # created
        cfg = write_short_config(tmp_path, duration="0.1")
        missing = tmp_path.resolve() / "missing" / "dir"
        (tmp_path / "run.meta.json").symlink_to(missing / "run.meta.json")
        before = sorted(tmp_path.iterdir())
        for forked in (True, False):
            monkeypatch.setattr(stream, "can_fork", lambda: forked)
            assert main(["simulate", str(cfg),
                         "-o", str(tmp_path / "run.csv")]) == 1
            assert capfd.readouterr() == (
                "", f"error: parent directory {missing} does not exist\n")
            assert sorted(tmp_path.iterdir()) == before
            assert_no_child()

    @pytest.mark.parametrize("fault", ["full", "taken"])
    def test_second_temporary_failing_leaves_no_file(self, fault, tmp_path,
                                                     monkeypatch, capfd):
        # the sidecar's temporary file cannot be created once the CSV's
        # is: the disk is full, or its name is taken by a file that this
        # process did not create, which stays as it was
        cfg = write_short_config(tmp_path, duration="0.1")
        out = tmp_path / "out"
        out.mkdir()
        taken = out / ".s.meta.json.00000000"
        if fault == "taken":
            monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
            taken.write_text("not ours\n")
        else:
            real_open = os.open

            def full(path, flags, *args, **kwargs):
                if Path(path).name.startswith(".s.meta.json."):
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC),
                                  str(path))
                return real_open(path, flags, *args, **kwargs)
            monkeypatch.setattr(os, "open", full)
        for forked in (True, False):
            monkeypatch.setattr(stream, "can_fork", lambda: forked)
            assert main(["simulate", str(cfg), "-o", str(out / "s.csv")]) == 1
            err = capfd.readouterr().err
            assert err.startswith("error: [Errno ")
            assert ".s.meta.json." in err
            if fault == "taken":
                assert list(out.iterdir()) == [taken]
                assert taken.read_text() == "not ours\n"
            else:
                assert list(out.iterdir()) == []
            assert_no_child()

    @pytest.mark.parametrize("fault, status", [
        ("raise", 1), ("kill", -signal.SIGKILL)])
    def test_writer_failure_exits_1(self, fault, status, tmp_path,
                                    monkeypatch, capfd):
        # a writer that raises removes its file; one killed leaves it to
        # this process
        def broken(traj, metrics):
            if fault == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("formatting failed")

        monkeypatch.setattr(cli, "_telemetry", broken)
        cfg = write_short_config(tmp_path, duration="0.5")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["simulate", str(cfg), "-o", str(out / "w.csv")]) == 1
        assert capfd.readouterr() == (
            "", f"error: telemetry writer failed with exit status {status}\n")
        assert list(out.iterdir()) == []
        assert_no_child()


def test_simulate_memory_does_not_grow_with_the_horizon(tmp_path,
                                                       monkeypatch):
    # in process, the peak of memory that Python allocates for a 1.25 s
    # run is that of a 0.25 s run within 0.25 MB, less than the 1.25 s
    # run's rows alone (1251 x 39 floats, 0.39 MB); a run that holds a
    # whole history or stream grows by its size (1.6 MB more at 1.25 s
    # when the reference stream and the run's rows were held whole).  A
    # first, 0.02 s run sets up what any run allocates once.
    monkeypatch.setattr(stream, "can_fork", lambda: False)
    peaks = []
    for duration in ("0.02", "0.25", "1.25"):
        cfg = write_short_config(tmp_path, duration=duration)
        tracemalloc.start()
        try:
            assert main(["simulate", str(cfg),
                         "-o", str(tmp_path / "run.csv")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] - peaks[1] < 0.25e6, peaks


def test_compare_memory_grows_by_its_effort_columns_only(tmp_path):
    # `compare` holds its two runs' effort columns, 32 bytes a sample,
    # and no run whole: the peak of memory that Python allocates for a
    # 1.4 s compare is that of a 1.1 s compare within 0.05 MB, where the
    # two runs held whole, rows and record, grew it by 0.39 MB.  Both
    # horizons pass two post-passes of 512 rows, each of which holds its
    # rows while the next is joined; Lie-Euler keeps the traced runs
    # short, and a first, 0.02 s compare sets up what any compare
    # allocates once.
    peaks = []
    for duration in ("0.02", "1.1", "1.4"):
        cfg = write_short_config(tmp_path, duration=duration, extra=[(
            "integrator.scheme = rk4_munthe_kaas",
            "integrator.scheme = lie_euler")])
        tracemalloc.start()
        try:
            assert main(["compare", str(cfg),
                         "-o", str(tmp_path / f"cmp_{duration}")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] - peaks[1] < 0.05e6, peaks


@pytest.mark.parametrize("command", ["simulate", "plot", "compare"])
def test_missing_output_dir_exit_1_before_running(command, tmp_path,
                                                  monkeypatch, capsys):
    monkeypatch.setattr(cli, "closed_loop_blocks", never_integrate)
    monkeypatch.setattr(cli, "compare_efforts", never_integrate)
    source = write_telemetry(tmp_path / "in.csv", PINNED_ROWS) \
        if command == "plot" else write_short_config(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "missing" / ("x.svg" if command == "plot" else "x.csv")
    assert main([command, str(source), "-o", str(out)]) == 1
    assert sorted(tmp_path.rglob("*")) == before
    assert "parent directory" in capsys.readouterr().err


@pytest.mark.parametrize("command, forked", [
    ("simulate", True), ("simulate", False), ("compare", True),
    ("plot", True)])
def test_symlink_loop_output_exit_1_before_running(command, forked, tmp_path,
                                                   monkeypatch, capfd):
    # an output path in a symlink loop (a -> b -> a) is one error line
    # naming it, not a traceback from resolving it, and nothing runs
    monkeypatch.setattr(stream, "can_fork", lambda: forked)
    monkeypatch.setattr(cli, "closed_loop_blocks", never_integrate)
    monkeypatch.setattr(cli, "compare_efforts", never_integrate)
    source = write_telemetry(tmp_path / "in.csv", PINNED_ROWS) \
        if command == "plot" else write_short_config(tmp_path)
    out = tmp_path / ("a.svg" if command == "plot" else "a.csv")
    out.symlink_to(out.with_stem("b"))
    out.with_stem("b").symlink_to(out)
    before = sorted(tmp_path.iterdir())
    assert main([command, str(source), "-o", str(out)]) == 1
    out_text, err = capfd.readouterr()
    assert out_text == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(out) in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before
    assert_no_child()


@pytest.mark.parametrize("command, link", [
    ("simulate", "symlink"), ("simulate", "hard link"), ("compare", "symlink"),
    ("plot", "symlink")])
def test_two_outputs_naming_one_file_exit_1_before_running(
        command, link, tmp_path, monkeypatch, capfd):
    # two outputs of one command that name one file (the second a link to
    # the first) would leave only the one written last: one error line
    # naming both, and nothing runs or is created
    monkeypatch.setattr(cli, "closed_loop_blocks", never_integrate)
    monkeypatch.setattr(cli, "compare_efforts", never_integrate)
    source = write_telemetry(tmp_path / "in.csv", PINNED_ROWS) \
        if command == "plot" else write_short_config(tmp_path)
    out = tmp_path / {"simulate": "a.csv", "compare": "cmp",
                      "plot": "p.svg"}[command]
    first, second = {
        "simulate": (out, tmp_path / "a.meta.json"),
        "compare": (out / "effort_proposed.csv", out / "effort_baseline.csv"),
        "plot": (out, tmp_path / "p_psi.svg")}[command]
    first.parent.mkdir(exist_ok=True)
    if link == "symlink":
        second.symlink_to(first.name)
    else:
        first.write_text("kept\n")
        second.hardlink_to(first)
    before = sorted(tmp_path.rglob("*"))
    assert main([command, str(source), "-o", str(out)]) == 1
    out_text, err = capfd.readouterr()
    assert out_text == ""
    assert err == f"error: outputs {first} and {second} name one file\n"
    assert sorted(tmp_path.rglob("*")) == before
    if link == "hard link":
        assert first.read_text() == "kept\n"
    assert_no_child()


@pytest.mark.parametrize("link", ["same path", "symlink", "hard link"])
@pytest.mark.parametrize("command", ["simulate", "plot", "compare"])
def test_output_naming_the_input_exit_1_before_running(
        command, link, tmp_path, monkeypatch, capfd):
    # an output that names the command's input (the input's own path, or
    # a link to it) would overwrite what the command read: one error line
    # naming both, the input's bytes kept, and nothing runs or is created
    monkeypatch.setattr(cli, "closed_loop_blocks", never_integrate)
    monkeypatch.setattr(cli, "compare_efforts", never_integrate)
    source = write_telemetry(tmp_path / "in.csv", PINNED_ROWS) \
        if command == "plot" else write_short_config(tmp_path)
    out = tmp_path / {"simulate": "a.csv", "compare": "cmp",
                      "plot": "p.svg"}[command]
    alias = {"simulate": tmp_path / "a.meta.json",
             "compare": out / "summary.json",
             "plot": tmp_path / "p_psi.svg"}[command]
    alias.parent.mkdir(exist_ok=True)
    if link == "same path" and command == "compare":
        source = source.rename(alias)
    elif link == "same path":
        out = alias = source
    elif link == "symlink":
        alias.symlink_to(source)
    else:
        alias.hardlink_to(source)
    data, before = source.read_bytes(), sorted(tmp_path.rglob("*"))
    assert main([command, str(source), "-o", str(out)]) == 1
    out_text, err = capfd.readouterr()
    assert out_text == ""
    assert err == f"error: input {source} and output {alias} name one file\n"
    assert source.read_bytes() == data
    assert sorted(tmp_path.rglob("*")) == before
    assert_no_child()


class TestTuneGains:
    def test_benchmark_verdict(self, capsys):
        assert main(["tune-gains", str(ZERO_CFG)]) == 0
        out = capsys.readouterr().out
        assert "verdict: infeasible" in out
        assert "10.8" in out                 # kp floor at kappa = 0.6
        assert "2.0048" in out and "6.84" in out   # stored and formula bounds

    def test_synthesize_recheck_passes(self, capsys):
        assert main(["tune-gains", str(ZERO_CFG), "--synthesize"]) == 0
        out = capsys.readouterr().out
        assert out.count("verdict: feasible") == 1

    def test_synthesize_with_unit_kd(self, tmp_path, capsys):
        cfg = write_short_config(tmp_path,
                                 extra=[("gains.kd = 3", "gains.kd = 1")])
        assert main(["tune-gains", str(cfg), "--synthesize"]) == 0
        assert "verdict: feasible" in capsys.readouterr().out

    def test_bad_config_exit_1(self, tmp_path, capsys):
        cfg = write_short_config(tmp_path,
                                 extra=[("gains.mu_hess = 2.0048",
                                         "gains.mu_hess = -1")])
        assert main(["tune-gains", str(cfg)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("inertia", ["1e300 0 0 0 1e300 0 0 0 1e300",
                                         "1e-200 0 0 0 1e-200 0 0 0 1e-200",
                                         "1e308 0 0 0 1e308 0 0 0 1e308"],
                             ids=["huge", "tiny", "largest"])
    def test_synthesis_failure_exit_1(self, inertia, tmp_path, capsys,
                                      recwarn):
        # the config is valid, each inertia of condition number 1; the
        # eigenvalue bounds of its inertia are not
        cfg = write_short_config(tmp_path, extra=[(
            "plant.I = 4 1 1 1 5.2 2 1 2 6.3", f"plant.I = {inertia}")])
        assert main(["check", str(cfg)]) == 0
        capsys.readouterr()
        err = _run_one_error(["tune-gains", str(cfg), "--synthesize"], capsys)
        assert "cannot synthesize gains" in err
        assert not [w for w in recwarn if w.category is RuntimeWarning]


class TestCompare:
    def test_writes_paired_outputs(self, tmp_path):
        cfg = write_short_config(
            tmp_path, extra=[("reference.program = zero",
                              "reference.program = constant"),
                             ("reference.amplitude = 0.0 0.0 0.0",
                              "reference.amplitude = 0.2 0.1 0.2")])
        out = tmp_path / "cmp"
        assert main(["compare", str(cfg), "-o", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["proposed_integral"] > 0.0
        assert summary["baseline_integral"] > 0.0
        for name in ("effort_proposed.csv", "effort_baseline.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "t,uint_norm,uext_norm"
            assert len(lines) == 1002

    def test_effort_columns_are_the_runs_torques(self, tmp_path):
        # each row's |I u| and |u_int|, recomputed through the public
        # control laws from the rows of the proposed law's run alone
        cfg_path = write_short_config(
            tmp_path, extra=[("reference.program = zero",
                              "reference.program = sinusoid"),
                             ("reference.amplitude = 0.0 0.0 0.0",
                              "reference.amplitude = 1.0 1.0 1.0")])
        assert main(["compare", str(cfg_path), "-o",
                     str(tmp_path / "cmp")]) == 0
        cfg = load_config(cfg_path)
        traj, _ = scenario.run_closed_loop(cfg)
        i = cfg.plant.params.body_inertia
        u_ext = control_uext(i, cfg.weights.P, cfg.gains, traj.R, traj.Omega,
                             traj.R_d, traj.Omega_d, traj.Omega_d_dot,
                             traj.xi_I) @ i.T
        u_int = control_uint(cfg.plant.params, u_ext, traj.Omega,
                             traj.OmegaR)
        t, uint_norm, uext_norm = np.loadtxt(
            tmp_path / "cmp" / "effort_proposed.csv", delimiter=",",
            skiprows=1).T
        assert np.array_equal(t, traj.times)
        for column, torque in ((uext_norm, u_ext), (uint_norm, u_int)):
            np.testing.assert_allclose(
                column, np.linalg.norm(torque, axis=1), rtol=1e-12, atol=0)

    def test_no_baseline_effort_writes_null_ratio(self, tmp_path):
        # the plant starts on a reference at rest, so neither law applies
        # torque: strict JSON, which has no NaN, holds the ratio as null
        cfg = write_short_config(tmp_path, extra=[
            ("plant.R0 = 0.36 0.48 -0.8 -0.8 0.6 0 0.48 0.64 0.6",
             "plant.R0 = 1 0 0 0 1 0 0 0 1"),
            ("plant.IOmega0 = 1 2.2 5.1", "plant.IOmega0 = 0 0 0"),
            ("plant.OmegaR0 = 0.5 1.9 1.5", "plant.OmegaR0 = 0 0 0"),
            ("reference.IOmega0 = -0.8 -0.3 -0.5",
             "reference.IOmega0 = 0 0 0")])
        out = tmp_path / "cmp"
        assert main(["compare", str(cfg), "-o", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")
        summary = json.loads((out / "summary.json").read_text(),
                             parse_constant=reject)
        assert summary == {"baseline_integral": 0.0,
                           "proposed_integral": 0.0, "ratio": None}

    def test_missing_parent_exit_1(self, tmp_path):
        cfg = write_short_config(tmp_path)
        assert main(["compare", str(cfg),
                     "-o", str(tmp_path / "no" / "such" / "dir")]) == 1

    def test_dangling_symlink_output_writes_through_the_link(self, tmp_path):
        # the link names a directory that does not exist yet: compare
        # creates it after the run and writes the plain run's bytes there
        cfg = write_short_config(tmp_path, duration="0.2")
        (tmp_path / "outdir").symlink_to("missing_dir")
        assert main(["compare", str(cfg), "-o", str(tmp_path / "outdir")]) == 0
        assert main(["compare", str(cfg), "-o", str(tmp_path / "plain")]) == 0
        names = ["effort_baseline.csv", "effort_proposed.csv", "summary.json"]
        target = tmp_path / "missing_dir"
        assert sorted(p.name for p in target.iterdir()) == names
        for name in names:
            assert (target / name).read_bytes() == (
                tmp_path / "plain" / name).read_bytes()

    def test_divergence_exit_2_leaves_no_directory(self, tmp_path):
        cfg = write_short_config(
            tmp_path, duration="50",
            extra=[("integrator.step = 0.001", "integrator.step = 1.0"),
                   ("gains.kp = 1", "gains.kp = 500000")])
        assert main(["compare", str(cfg), "-o", str(tmp_path / "cmpout")]) == 2
        assert not (tmp_path / "cmpout").exists()

    def test_output_is_file_exit_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "compare_efforts", never_integrate)
        cfg = write_short_config(tmp_path)
        (tmp_path / "cmp").write_text("")
        assert main(["compare", str(cfg), "-o", str(tmp_path / "cmp")]) == 1
        assert "cmp is not a directory" in capsys.readouterr().err

    def test_summary_is_directory_exit_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "compare_efforts", never_integrate)
        cfg = write_short_config(tmp_path)
        out = tmp_path / "cmp"
        (out / "summary.json").mkdir(parents=True)
        assert main(["compare", str(cfg), "-o", str(out)]) == 1
        assert "summary.json is a directory" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["summary.json"]


class TestPlot:
    def test_renders_three_svgs(self, bundled_run, tmp_path):
        out = tmp_path / "plots.svg"
        assert main(["plot", str(bundled_run), "-o", str(out)]) == 0
        for path in (out, tmp_path / "plots_psi.svg",
                     tmp_path / "plots_effort.svg"):
            assert path.exists() and path.stat().st_size > 500

    def test_entry_selection(self, bundled_run, tmp_path):
        out = tmp_path / "panels.svg"
        assert main(["plot", str(bundled_run), "-o", str(out),
                     "--entries", "11,33"]) == 0
        text = out.read_text()
        assert "attitude entry (1,1)" in text
        assert "attitude entry (3,3)" in text
        assert "attitude entry (1,2)" not in text

    def test_bad_entry_exit_1(self, bundled_run, tmp_path):
        for entries in ("14", "x", "11,0"):
            assert main(["plot", str(bundled_run),
                         "-o", str(tmp_path / "x.svg"),
                         "--entries", entries]) == 1
        assert not list(tmp_path.iterdir())

    def test_header_only_csv_exit_1_no_partials(self, tmp_path, recwarn):
        empty = tmp_path / "empty.csv"
        empty.write_text(GOLDEN_HEADER + "\n")
        assert main(["plot", str(empty), "-o", str(tmp_path / "e.svg")]) == 1
        assert not list(tmp_path.glob("*.svg"))
        assert not recwarn.list

    def test_schema_mismatch_exit_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x,y\n0,1,2\n")
        assert main(["plot", str(bad), "-o", str(tmp_path / "b.svg")]) == 1

    def test_effort_output_is_directory_exit_1_no_svg(self, tmp_path):
        csv = write_telemetry(tmp_path / "in.csv", PINNED_ROWS)
        (tmp_path / "p_effort.svg").mkdir()
        assert main(["plot", str(csv), "-o", str(tmp_path / "p.svg")]) == 1
        assert [p.name for p in tmp_path.glob("*.svg")] == ["p_effort.svg"]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_pinned_svg_bytes(self, tmp_path, newline):
        csv = write_telemetry(tmp_path / "pinned.csv", PINNED_ROWS, newline)
        out = tmp_path / "pinned.svg"
        assert main(["plot", str(csv), "-o", str(out)]) == 0
        assert svg_digests(out) == PINNED_SVG_SHA256

    @pytest.mark.parametrize("edits", [
        {(2, "uint1"): "1e200"},
        {(1, "R11"): "1e308", (3, "R11"): "-1e308", (2, "psi_E"): "1.7e308",
         (1, "uint1"): "1e308", (1, "uint2"): "-1e308", (1, "uint3"): "1e308"}],
        ids=["effort 1e200", "entries 1e308"])
    def test_huge_finite_telemetry_plots_finite(self, edits, tmp_path,
                                                recwarn):
        # neither the effort norm nor an axis span overflows
        names = GOLDEN_HEADER.split(",")
        rows = [row.split(",") for row in PINNED_ROWS]
        for (k, name), value in edits.items():
            rows[k][names.index(name)] = value
        csv = write_telemetry(tmp_path / "huge.csv", map(",".join, rows))
        out = tmp_path / "huge.svg"
        assert main(["plot", str(csv), "-o", str(out)]) == 0
        for name in svg_digests(out):
            assert not re.search(r"\b(nan|inf)\b",
                                 (tmp_path / name).read_text())
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_single_row_plots(self, tmp_path):
        csv = write_telemetry(tmp_path / "one.csv", PINNED_ROWS[:1])
        assert main(["plot", str(csv), "-o", str(tmp_path / "one.svg")]) == 0

    @pytest.mark.parametrize("last_field", ["abc", "", "0,0", "nan", "-inf"],
                             ids=["non-numeric", "empty", "extra-column",
                                  "nan", "infinite"])
    def test_corrupt_row_exit_1_no_svg(self, tmp_path, last_field):
        rows = list(PINNED_ROWS)
        rows[2] = rows[2].rsplit(",", 1)[0] + "," + last_field
        csv = write_telemetry(tmp_path / "bad.csv", rows)
        assert main(["plot", str(csv), "-o", str(tmp_path / "b.svg")]) == 1
        assert not list(tmp_path.glob("*.svg"))

    def test_non_utf8_csv_exit_1_no_svg(self, tmp_path, capsys):
        csv = tmp_path / "binary.csv"
        csv.write_bytes(GOLDEN_HEADER.encode() + b"\n\xff\xfe,0\n")
        assert main(["plot", str(csv), "-o", str(tmp_path / "b.svg")]) == 1
        assert not list(tmp_path.glob("*.svg"))
        assert capsys.readouterr().err.startswith("error:")

    def test_short_rows_exit_1_no_svg(self, tmp_path):
        rows = [row.rsplit(",", 1)[0] for row in PINNED_ROWS]
        csv = write_telemetry(tmp_path / "short.csv", rows)
        assert main(["plot", str(csv), "-o", str(tmp_path / "s.svg")]) == 1
        assert not list(tmp_path.glob("*.svg"))


class TestCheck:
    def test_valid_config(self, capsys):
        assert main(["check", str(ZERO_CFG)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_invalid_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(ZERO_CFG.read_text().replace(
            "plant.I = 4 1 1 1 5.2 2 1 2 6.3", "plant.I = not numbers"))
        assert main(["check", str(bad)]) == 1
        assert "plant.I" in capsys.readouterr().err

    def test_near_singular_inertia_named(self, tmp_path, capsys):
        # past the condition-number limit the plant fails by its key, not
        # as a divergence at step 1; the triangle inequality of principal
        # moments is not required, so diag(4, 5.2, 1e-3) passes
        for moments, status in (("4 0 0 0 5.2 0 0 0 1e-8", 1),
                                ("4 0 0 0 5.2 0 0 0 1e-3", 0)):
            cfg = write_short_config(tmp_path, extra=[(
                "plant.I = 4 1 1 1 5.2 2 1 2 6.3", f"plant.I = {moments}")])
            assert main(["check", str(cfg)]) == status
        err = capsys.readouterr().err
        assert err.startswith("error: body inertia condition number")
        assert "key 'plant.I'" in err and len(err.splitlines()) == 1

    def test_non_utf8_config_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "binary.cfg"
        bad.write_bytes(b"\xff\xfe plant.I = 1\n")
        assert main(["check", str(bad)]) == 1
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("edits, key", [
        # Omega0 = I^{-1} IOmega0 overflows to inf
        ({"plant.I": "0.5 0 0 0 0.5 0 0 0 0.5", "plant.IOmega0": "1e308 0 0"},
         "plant.IOmega0"),
        # Omega0 is finite, the momentum that derives OmegaR_d(0) is not
        ({"plant.IOmega0": "1e308 -1e308 1e308"}, "reference.OmegaR0")],
        ids=["seeded rate", "derived rotor rate"])
    def test_non_finite_derived_value_named(self, edits, key, tmp_path,
                                            capsys, recwarn):
        text = ZERO_CFG.read_text()
        for name, value in edits.items():
            text = re.sub(rf"^{re.escape(name)} = .*$", f"{name} = {value}",
                          text, flags=re.MULTILINE)
        with pytest.raises(ConfigParseError, match="finite") as err:
            parse_config(text)
        assert err.value.key == key
        bad = tmp_path / "overflow.cfg"
        bad.write_text(text)
        assert main(["check", str(bad)]) == 1
        out = capsys.readouterr()
        assert out.err.startswith("error: ") and f"key '{key}'" in out.err
        assert "Traceback" not in out.err
        assert not [w for w in recwarn if w.category is RuntimeWarning]


# inputs whose step count or gain certificate leaves the float range,
# above or below, with the key the error names: the step count's is
# integrator.duration; a certificate names none, since no single input
# is at fault
OVERFLOW_EDITS = {
    "duration 1e308": ({"integrator.duration": "1e308"}, "integrator.duration"),
    "step 1e-300": ({"integrator.step": "1e-300"}, "integrator.duration"),
    "kappa 1.5e300": ({"gains.mu_hess": "1e-300", "gains.kappa": "1.5e300"},
                      None),
    "kappa 1e200": ({"gains.mu_hess": "1.5e-200", "gains.kappa": "1e200"},
                    None),
    "ki 1e-110": ({"gains.ki": "1e-110"}, None),
    "kd 1e-90": ({"gains.kd": "1e-90"}, None),
    "kd 1e80": ({"gains.kd": "1e80"}, None),
}


def _run_one_error(argv, capsys):
    """Run the CLI, expect exit 1 and one ``error:`` line on stderr."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    return err


class TestOutOfRangeInputs:
    @pytest.mark.parametrize("edits, key", OVERFLOW_EDITS.values(),
                             ids=OVERFLOW_EDITS.keys())
    @pytest.mark.parametrize("command", ["check", "tune-gains", "simulate"])
    def test_named_config_error(self, edits, key, command, tmp_path, capsys,
                                recwarn):
        text = ZERO_CFG.read_text()
        for name, value in edits.items():
            text = re.sub(rf"^{re.escape(name)} = .*$", f"{name} = {value}",
                          text, flags=re.MULTILINE)
        with pytest.raises(ConfigParseError) as exc:
            parse_config(text)
        assert exc.value.key == key
        cfg = tmp_path / "out_of_range.cfg"
        cfg.write_text(text)
        argv = [command, str(cfg)]
        if command == "simulate":
            argv += ["-o", str(tmp_path / "run.csv")]
        err = _run_one_error(argv, capsys)
        assert f"key '{key}'" in err if key else "key '" not in err
        assert not [w for w in recwarn if w.category is RuntimeWarning]
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("command", ["check", "simulate"])
    @pytest.mark.parametrize("rotors", ["1e-20 3 2", "1e-320 3 2"])
    def test_tiny_reference_rotor_inertia(self, rotors, command, tmp_path,
                                          capsys, recwarn):
        # positivity (`InertiaParams`) is the one rule on K: 1e-20 derives
        # a huge but finite OmegaR_d(0) and runs; 1e-320 overflows it, a
        # non-finite rate named by its key
        assert "reference.OmegaR0 = derive" in ZERO_CFG.read_text()
        cfg = write_short_config(
            tmp_path, extra=[("reference.K = 4 3 2", f"reference.K = {rotors}")])
        argv = [command, str(cfg)]
        if command == "simulate":
            argv += ["-o", str(tmp_path / "run.csv")]
        if rotors == "1e-20 3 2":
            assert main(argv) == 0
            assert capsys.readouterr().err == ""
        else:
            err = _run_one_error(argv, capsys)
            assert "key 'reference.OmegaR0'" in err
            assert not (tmp_path / "run.csv").exists()
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_memory_error_exit_1(self, tmp_path, capsys):
        # a valid horizon too long for memory, duration 1e12 at the bundled
        # step: `compare` holds its two runs' effort columns, 4 floats a
        # sample, allocated before any child process starts (`simulate`
        # holds one block at a time, at any horizon)
        path = write_short_config(tmp_path, duration="1e12")
        assert load_config(path).integrator.n_steps == 10 ** 15
        err = _run_one_error(["compare", str(path), "-o",
                              str(tmp_path / "cmp")], capsys)
        assert "out of memory" in err
        assert not (tmp_path / "cmp").exists()
        assert_no_child()


def test_cli_import_leaves_scipy_out():
    # scipy.linalg used to be most of the CLI's import time and memory
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    code = "import sys, gyrotrack.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=60).returncode == 0
