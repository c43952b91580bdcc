"""The mutant catalogue: small edits of the package that Tier-1 must fail.

    python tests/mutants.py [--list] [--only NAME ...] [--tests PATH ...]

Each mutant is applied alone to a copy of the repository in a temporary
directory: the one occurrence of its old text in its module is replaced
by its new text, and the Tier-1 suite runs there with ``-x``.  The first
failing test is then run alone in the same copy with the module's text
put back: a line per mutant reports KILLED with that test if it passes
there, BROKEN with it if it fails there too (the test fails whatever the
mutant, so the kill says nothing), or SURVIVED; a survivor with a reason
is an equivalent (or near-equivalent) mutant, which no test can fail.
An entry whose old text no longer occurs exactly once in its module
reports STALE.  ``--tests`` runs only those test files or ids (relative
to the repository), for a property that should kill a mutant on its
own.  The run takes minutes: a killed mutant stops at its first failure,
a survivor runs the whole suite.  The exit status is 1 if any mutant
without a reason survived or any entry is stale or broken.

pytest does not collect this file (its name does not start with
``test_``).
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# (name, module of src/gyrotrack, old text, new text, reason or None);
# the reason says why a mutant is equivalent
MUTANTS = [
    # so3
    ("conn_matrix transposed", "so3",
     "    return sum((_matvec(_transpose(gamma[k::3]), a) for k in range(3)), ())",
     "    return _transpose(sum((_matvec(_transpose(gamma[k::3]), a)\n"
     "                           for k in range(3)), ()))", None),
    ("euler term's sign", "so3",
     "_cross(a, _matvec(i_metric, a))", "_cross(_matvec(i_metric, a), a)",
     None),
    ("matvec sum re-associated", "so3",
     "return (m0 * v0 + m1 * v1 + m2 * v2,",
     "return (m0 * v0 + (m1 * v1 + m2 * v2),", None),
    ("matmul's columns left transposed", "so3",
     "return _transpose(_matvec(a, (b0, b3, b6))",
     "return (_matvec(a, (b0, b3, b6))", None),
    ("mul_expm Q R for R Q", "so3",
     "return _matmul(r, q)", "return _matmul(q, r)", None),
    ("mul_expm theta^2 from c^2 (v . v)", "so3",
     "theta2 = x * x + y * y + z * z",
     "theta2 = c * c * (v0 * v0 + v1 * v1 + v2 * v2)", None),
    ("mul_expm product re-associated", "so3",
     "q = (d + b * x * x, bxy - az, bxz + ay,",
     "q = (d + b * (x * x), bxy - az, bxz + ay,", None),
    ("expm_coeffs small-angle b's sign", "so3",
     "0.5 - theta2 / 24.0", "0.5 + theta2 / 24.0",
     "below the angle 1e-8, theta2 / 24 < 4.2e-18 is under half an "
     "ulp of 0.5, so b rounds to 0.5 either way"),
    # integrators
    ("snap coefficient 1.5 -> 1.4", "integrators",
     "return tuple(1.5 * a - 0.5 * b for a, b in zip(r, m))",
     "return tuple(1.4 * a - 0.5 * b for a, b in zip(r, m))", None),
    ("snap's Gram matrix r r for r r^T", "integrators",
     "m = _matmul(_matmul(r, _transpose(r)), r)",
     "m = _matmul(_matmul(r, r), r)",
     None),
    ("dexpinv without its 1/12 term", "integrators",
     "return tuple(bj + 0.5 * xj + yj / 12.0",
     "return tuple(bj + 0.5 * xj", None),
    ("stage 2 without dexpinv", "integrators",
     "k2 = _dexpinv_right(half, k1, w)", "k2 = w", None),
    ("stage 3 from k1", "integrators",
     "w, v3 = vector_field(t + half, _mul_expm(r, half, k2),",
     "w, v3 = vector_field(t + half, _mul_expm(r, half, k1),", None),
    ("stage-3 slope from k1", "integrators",
     "k3 = _dexpinv_right(half, k2, w)", "k3 = _dexpinv_right(half, k1, w)",
     None),
    ("stage 4 at the step's start", "integrators",
     "w, v4 = vector_field(t + h, _mul_expm(r, h, k3),",
     "w, v4 = vector_field(t, _mul_expm(r, h, k3),", None),
    ("final combination reordered", "integrators",
     "return tuple(x + 2.0 * y + 2.0 * z + w for x, y, z, w in zip(",
     "return tuple(x + w + 2.0 * y + 2.0 * z for x, y, z, w in zip(", None),
    ("check exempts each block's first row", "integrators",
     "finite[:1] |= not start", "finite[:1] = True", None),
    ("check reports the next row", "integrators",
     "i = start + int(finite.argmin())",
     "i = start + int(finite.argmin()) + 1", None),
    # codegen
    ("right operand of equal precedence unparenthesized", "codegen",
     "rp > p", "rp >= p", None),
    ("negation of an operation unparenthesized", "codegen",
     'text if prec == _ATOM else f"({text})"', "text", None),
    # dynamics
    ("external Euler term's sign", "dynamics",
     "return tuple(u - n for u, n in zip(u_ext,",
     "return tuple(u + n for u, n in zip(u_ext,", None),
    ("block solve's rows swapped", "dynamics",
     "return d_omega, tuple(u / kj - d for u, kj, d in zip(u_int, k, d_omega))",
     "return tuple(u / kj - d for u, kj, d in zip(u_int, k, d_omega)), d_omega",
     None),
    ("Pi x Omega's sign", "dynamics",
     "f = _cross(_momentum(consts, omega, omega_r), omega)",
     "f = _cross(omega, _momentum(consts, omega, omega_r))", None),
    ("momentum's rotor term on Omega", "dynamics",
     "zip(_matvec(locked, omega), k,\n                                                omega_r)",
     "zip(_matvec(locked, omega), k,\n                                                omega)",
     None),
    # control
    ("error rotation R^T R_d for R_d R^T", "control",
     "_matmul(r_d, _transpose(r))", "_matmul(_transpose(r), r_d)", None),
    ("feed-forward's x dropped", "control",
     "u = tuple(a + w + n + f for a, w, n, f in zip(",
     "u = tuple(a + n + f for a, w, n, f in zip(", None),
    ("I u from I^{-1}", "control",
     "return u, _matvec(metric[0], u), xi_dot",
     "return u, _matvec(metric[1], u), xi_dot", None),
    ("Omega_d x Omega for Omega x Omega_d", "control",
     "_cross(omega, omega_d)", "_cross(omega_d, omega)", None),
    ("u_int cross-term's sign", "control",
     "_cross(spin, omega)", "_cross(omega, spin)", None),
    ("feedback without C(eta) xi_I", "control",
     """    return tuple(fb), tuple(g - n for g, n in zip(grad,
                                                  _matvec(c_eta, xi_i)))""",
     "    return tuple(fb), tuple(grad)", None),
    ("dpsi from E P", "control",
     "_skew_vee(_matmul(p_mat, e))", "_skew_vee(_matmul(e, p_mat))", None),
    ("Q13's sign", "control",
     "q[0, 2] = q[2, 0] = -g.sigma * g.ki",
     "q[0, 2] = q[2, 0] = g.sigma * g.ki", None),
    ("Q13's sign, one entry alone", "control",
     "q[0, 2] = q[2, 0] = -g.sigma * g.ki",
     "q[2, 0] = -g.sigma * g.ki\n    q[0, 2] = g.sigma * g.ki", None),
    ("mu_hess_formula over l_max", "control",
     "return float(2.0 * (eig[0] + eig[-1]) / eig[0])",
     "return float(2.0 * (eig[0] + eig[-1]) / eig[-1])", None),
    ("lambda_sup_formula with l_min not squared", "control",
     "return float(2.0 * eig[-1] / eig[0] ** 2)",
     "return float(2.0 * eig[-1] / eig[0])", None),
    ("ecl_value's alpha term weighted by beta", "control",
     "+ gains.alpha * np.vecdot(dpsi, eta)",
     "+ gains.beta * np.vecdot(dpsi, eta)", None),
    ("nav_hessian not symmetrized", "control",
     "return 0.5 * (h + h.mT)", "return h",
     "the form is already symmetric within 5e-16: the connection is "
     "torsion-free"),
    ("kp_floor_q scaled by 0.1", "control",
     "kp_floor_q = property(lambda g: 2.0 * g.kappa * g.kd ** 2)",
     "kp_floor_q = property(lambda g: 0.2 * g.kappa * g.kd ** 2)", None),
    ("ki_bound scaled by 10", "control",
     "ki_bound = property(lambda g: (g.kd ** 3 / g.mu_hess)",
     "ki_bound = property(lambda g: 10.0 * (g.kd ** 3 / g.mu_hess)", None),
    ("verdict's kp_floor the smaller floor", "control",
     "kp_floor = property(lambda v: max(",
     "kp_floor = property(lambda v: min(", None),
    ("verdict feasible if any check is", "control",
     "feasible = property(lambda v: all(",
     "feasible = property(lambda v: any(", None),
    # scenario
    ("torque program shifted by 1e-12", "scenario",
     "return c0 + s0 * s, c1 + s1 * c, c2 + s2 * s",
     "return c0 + s0 * s + 1e-12, c1 + s1 * c, c2 + s2 * s", None),
    ("drift from each block's first sample", "scenario",
     "                              - momentum0).max(axis=1)",
     "                              - spatial_momentum(r, omega, col[15:18])"
     "[:1]).max(axis=1)", None),
    ("effort_uext_l2 from u_int", "scenario",
     "effort_uext_l2=np.linalg.norm(traj.u_ext, axis=1),",
     "effort_uext_l2=np.linalg.norm(traj.u_int, axis=1),", None),
    ("certified region without its slack", "scenario",
     "return shape_ok & (lhs <= rhs + 1e-12)", "return shape_ok & (lhs <= rhs)",
     "near-equivalent: it only moves samples on the region's boundary"),
    ("baseline run with the proposed gains", "scenario",
     "(cfg.gains, pd_variant(cfg.gains))", "(cfg.gains, cfg.gains)", None),
    ("proposed integral over column 1", "scenario",
     "c.proposed[:, 0], dx=c.step", "c.proposed[:, 1], dx=c.step", None),
    ("baseline integral at twice the step", "scenario",
     "c.baseline[:, 0], dx=c.step", "c.baseline[:, 0], dx=2.0 * c.step", None),
    # cli
    ("sidecar psi_max from the orthogonality drift", "cli",
     '"psi_max": worst[2]', '"psi_max": worst[1]', None),
    ("sidecar samples one short", "cli",
     '"samples": cfg.integrator.n_steps + 1,',
     '"samples": cfg.integrator.n_steps,', None),
    ("output check ignores a symlink's target", "cli",
     "for parent in (path.parent, target.parent):",
     "for parent in (path.parent,):", None),
    ("private 0600 temporary files", "cli", "0o666))", "0o600))", None),
    ("no clean-up in the parent", "cli",
     """    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):   # the writer's
                os.unlink(tmp)
        raise""",
     """    except BaseException:
        raise""", None),
    # stream
    ("no niceness for a reading child", "stream",
     "                    os.nice(10)\n", "", None),
    ("no flush after a message", "stream",
     "    pipe.write(block)\n    pipe.flush()", "    pipe.write(block)", None),
    ("other children's ends left open", "stream",
     "                    os.close(end.fileno())",
     "                    pass", None),
]

_IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache",
                                 "__pycache__", ".bench_work", ".benchmarks")


def stale(module_text, old):
    """Whether ``old`` does not occur exactly once in a module's text."""
    return module_text.count(old) != 1


def first_failure(output):
    """The first FAILED or ERROR id of pytest's short summary, or None.
    A parametrized id may hold spaces; the summary ends it at " - "."""
    match = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", output,
                      re.MULTILINE)
    return match and match.group(1)


def _pytest(copy, tests):
    """Tier-1, or only ``tests``, in the copy ``copy``, stopping at the
    first failure; no bytecode is written, so an edit of a module counts
    at the next run."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p",
         "no:cacheprovider", "--continue-on-collection-errors", *tests],
        cwd=copy, env=env, capture_output=True, text=True)


def run_mutant(module, old, new, tests):
    """(status, first failing test, seconds) of Tier-1 on a mutated copy.
    A kill counts only if its test passes once the module's text is put
    back in the copy, where hypothesis replays the example that failed;
    else the status is BROKEN."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(REPO, copy, ignore=_IGNORE)
        path = copy / "src" / "gyrotrack" / f"{module}.py"
        text = path.read_text()
        path.write_text(text.replace(old, new))
        began = time.monotonic()
        proc = _pytest(copy, tests)
        seconds = time.monotonic() - began
        if proc.returncode == 0:
            return "SURVIVED", None, seconds
        if proc.returncode != 1:
            return f"ERROR (pytest exit {proc.returncode})", None, seconds
        test = first_failure(proc.stdout)
        path.write_text(text)
        if _pytest(copy, [test] if test else tests).returncode != 0:
            return "BROKEN", test, seconds
        return "KILLED", test, seconds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--list", action="store_true",
                        help="list the catalogue and exit")
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="run only the mutants of these names")
    parser.add_argument("--tests", nargs="+", default=[], metavar="PATH",
                        help="test files or ids to run, not all of Tier-1")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.only or m[0] in args.only]
    if args.list:
        for name, module, _, _, reason in chosen:
            print(f"{module:12} {name}" + (f"  ({reason})" if reason else ""))
        return 0
    failed = False
    for name, module, old, new, reason in chosen:
        text = (REPO / "src" / "gyrotrack" / f"{module}.py").read_text()
        if stale(text, old):
            status, test, seconds = "STALE", None, 0.0
        else:
            status, test, seconds = run_mutant(module, old, new, args.tests)
        failed |= status in ("STALE", "BROKEN") or (status == "SURVIVED"
                                                    and not reason)
        note = test or (f"equivalent: {reason}" if reason
                        and status == "SURVIVED" else "")
        print(f"{status:9} {seconds:6.1f} s  {module}: {name}"
              + (f"  [{note}]" if note else ""), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
