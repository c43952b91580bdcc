"""Correctness checks on the program's outputs, and their self-test.

Every check returns a list of problems; an empty list means the output
passed.  The benchmark counts an operation as failed when any check on
it reports a problem, and never skips or retries one.
"""

import contextlib
import io
import json
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path

MAX_MOMENTUM_DRIFT = 1e-6
MAX_ORTHO_DRIFT = 1e-9
SVG_TAG = "{http://www.w3.org/2000/svg}svg"


def quiet():
    """Send the CLI's progress lines to nowhere while it runs."""
    return contextlib.redirect_stdout(io.StringIO())


def conservation(momentum_drift, ortho_drift):
    """Spatial momentum and orthogonality drift below their limits.

    Written as ``not (x < limit)`` so that a NaN fails too.
    """
    problems = []
    if not momentum_drift < MAX_MOMENTUM_DRIFT:
        problems.append(f"momentum drift {momentum_drift:.3g} "
                        f">= {MAX_MOMENTUM_DRIFT:g}")
    if not ortho_drift < MAX_ORTHO_DRIFT:
        problems.append(f"orthogonality drift {ortho_drift:.3g} "
                        f">= {MAX_ORTHO_DRIFT:g}")
    return problems


def meta_file(path):
    """Conservation figures recorded in a ``.meta.json`` sidecar."""
    try:
        cons = json.loads(Path(path).read_text(encoding="utf-8"))["conservation"]
        return conservation(float(cons["momentum_drift"]),
                            float(cons["orthogonality_drift"]))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable metadata {path}: {exc!r}"]


def csv_file(path, columns, n_rows):
    """Header equal to ``columns``, exactly ``n_rows`` complete data rows.

    Reads the file in blocks, so that checking a large CSV does not add to
    the peak memory the benchmark reports.
    """
    rows, tail = 0, b""
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            for block in iter(lambda: fh.read(1 << 20), b""):
                rows += block.count(b"\n")
                tail = (tail + block)[-4096:]
    except OSError as exc:
        return [f"unreadable CSV {path}: {exc!r}"]
    problems = []
    if header.rstrip(b"\n").decode("utf-8", "replace").split(",") \
            != list(columns):
        problems.append("CSV header differs from the telemetry schema")
    if not (tail or header).endswith(b"\n"):
        problems.append("CSV does not end with a complete row")
    if rows != n_rows:
        problems.append(f"CSV has {rows} data rows, expected {n_rows}")
    last = tail.rstrip(b"\n").rpartition(b"\n")[2]
    if rows and last.count(b",") != len(columns) - 1:
        problems.append("last CSV row has the wrong number of fields")
    return problems


def svg_files(paths):
    """Each file exists, is non-empty and parses as an SVG document."""
    problems = []
    for path in paths:
        path = Path(path)
        try:
            if path.stat().st_size == 0:
                problems.append(f"{path.name} is empty")
                continue
            root = ET.parse(path).getroot()
        except (OSError, ET.ParseError) as exc:
            problems.append(f"{path.name} is not valid XML: {exc}")
            continue
        if root.tag != SVG_TAG:
            problems.append(f"{path.name} has root <{root.tag}>, not <svg>")
    return problems


def plot_outputs(svg_path):
    """The three files ``gyrotrack plot -o <svg>`` writes."""
    svg_path = Path(svg_path)
    return [svg_path,
            svg_path.with_name(svg_path.stem + "_psi" + svg_path.suffix),
            svg_path.with_name(svg_path.stem + "_effort" + svg_path.suffix)]


def self_test(gyro, cfg_text, n_steps, drifted_cfg_text, work):
    """Feed every check a valid and a deliberately broken output.

    ``cfg_text`` is a short scenario of ``n_steps`` steps;
    ``drifted_cfg_text`` is the same scenario whose initial attitude has
    an orthogonality defect injected.  Returns a list of problems: a valid
    output that a check rejects, or a broken one that it accepts.
    """
    cli = gyro["cli"]
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    cfg, csv, svg = work / "ok.cfg", work / "ok.csv", work / "ok.svg"
    cfg.write_text(cfg_text, encoding="utf-8")
    drifted = work / "drift.cfg"
    drifted.write_text(drifted_cfg_text, encoding="utf-8")
    problems = []

    def expect(label, found, should_fail):
        if bool(found) != should_fail:
            problems.append(f"self-test '{label}': check "
                            f"{'accepted' if should_fail else 'rejected'} it"
                            + (f" ({'; '.join(found)})" if found else ""))

    with quiet():
        rc_sim = cli.main(["simulate", str(cfg), "-o", str(csv)])
        rc_plot = cli.main(["plot", str(csv), "-o", str(svg)])
        rc_drift = cli.main(["simulate", str(drifted), "-o",
                             str(work / "drift.csv")])
    expect("valid simulate exit code", [] if rc_sim == 0 else ["rc"], False)
    expect("valid plot exit code", [] if rc_plot == 0 else ["rc"], False)
    expect("valid CSV", csv_file(csv, cli.COLUMNS, n_steps + 1), False)
    expect("valid metadata", meta_file(csv.with_suffix(".meta.json")), False)
    expect("valid SVGs", svg_files(plot_outputs(svg)), False)

    lines = csv.read_bytes().splitlines(keepends=True)
    truncated = work / "truncated.csv"
    truncated.write_bytes(b"".join(lines[:-1]))
    expect("CSV missing its last row",
           csv_file(truncated, cli.COLUMNS, n_steps + 1), True)
    truncated.write_bytes(b"".join(lines)[:-7])
    expect("CSV cut inside its last row",
           csv_file(truncated, cli.COLUMNS, n_steps + 1), True)
    expect("CSV with a renamed column",
           csv_file(csv, ["x"] + list(cli.COLUMNS[1:]), n_steps + 1), True)

    meta = json.loads(csv.with_suffix(".meta.json").read_text("utf-8"))
    for key, value in (("momentum_drift", 1e-3),
                       ("orthogonality_drift", 1e-6),
                       ("momentum_drift", float("nan"))):
        broken = json.loads(json.dumps(meta))
        broken["conservation"][key] = value
        path = work / "broken.meta.json"
        path.write_text(json.dumps(broken), encoding="utf-8")
        expect(f"metadata with {key} = {value}", meta_file(path), True)
    expect("rotation with drift injected, via the CLI",
           meta_file(work / "drift.meta.json") if rc_drift == 0
           else ["run failed"], True)
    try:
        _, metrics = gyro["scenario"].run_closed_loop(
            gyro["config"].parse_config(drifted_cfg_text))
        found = conservation(metrics.momentum_drift, metrics.ortho_drift)
    except gyro["errors"].GyrotrackError as exc:
        found = [f"run rejected the input: {exc}"]
    expect("rotation with drift injected, via run_closed_loop", found, True)

    broken_svgs = [work / f"broken{k}.svg" for k in range(3)]
    for path, src in zip(broken_svgs, plot_outputs(svg)):
        shutil.copyfile(src, path)
    broken_svgs[0].write_bytes(b"")
    expect("empty SVG", svg_files(broken_svgs), True)
    broken_svgs[0].write_bytes(broken_svgs[1].read_bytes()[:200])
    expect("SVG cut short", svg_files(broken_svgs), True)
    broken_svgs[0].write_text("<html/>", encoding="utf-8")
    expect("XML that is not SVG", svg_files(broken_svgs), True)
    return problems
