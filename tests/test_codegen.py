"""Generated kernels and steps against the sources they are generated from.

`codegen.generate` compiles a kernel's traced arithmetic into one
straight-line function.  It must give its source's bits on Python floats
and on numpy columns, including signed zeros, infinities and NaNs, raise
where its source raises, and make its opaque calls (the vector field and
`so3._mul_expm` in the step, `so3._expm_coeffs` in `_mul_expm`) with the
same arguments in the same order.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrotrack import codegen, control, dynamics, integrators, scenario, so3

_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
_FLOAT = st.one_of(_SPECIAL, st.floats(-3.0, 3.0), st.floats())
_GAINS = "kp kd ki"

# name -> (generated kernel, specs of its run constants, specs of its
# per-sample arguments), the constants first in each signature
KERNELS = {
    "loop_kernel": (control._loop_kernel, (so3._METRIC, 9, _GAINS),
                    (9, 3, 9, 3, 3, 3)),
    "feedback": (control._feedback, (so3._METRIC, 9, _GAINS), (9, 3, 3)),
    "uint": (control._uint, (dynamics._CONSTANTS,), (3, 3, 3)),
    "rotor_accels": (dynamics._rotor_accels, (dynamics._CONSTANTS,),
                     (3, 3, 3)),
    "external_accel": (dynamics._external_accel, (9, 9), (3, 3)),
}


def _value(spec, draw):
    """A value of a `codegen` spec, each scalar from ``draw()``."""
    if isinstance(spec, str):
        return types.SimpleNamespace(**{a: draw() for a in spec.split()})
    if isinstance(spec, int):
        return [draw() for _ in range(spec)]
    return tuple(_value(s, draw) for s in spec)


def _leaves(out):
    if isinstance(out, (tuple, list)):
        return [leaf for part in out for leaf in _leaves(part)]
    return [out]


def _outcome(fn, args):
    """The exception type ``fn`` raises on ``args``, or its value."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except ArithmeticError as exc:
        return type(exc)


def _same_float(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _check_floats(kernel, args):
    """The generated ``kernel`` on float ``args`` raises what its source
    raises, or returns its source's bits."""
    got, want = _outcome(kernel, args), _outcome(kernel.__wrapped__, args)
    if isinstance(want, type):
        assert got is want
        return
    assert type(got) is type(want)
    got, want = _leaves(got), _leaves(want)
    assert len(got) == len(want)
    assert all(type(a) is float and _same_float(a, b)
               for a, b in zip(got, want))


@pytest.mark.parametrize("name", sorted(KERNELS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generated_kernel_equals_its_source_on_floats(name, data):
    kernel, const_specs, sample_specs = KERNELS[name]
    _check_floats(kernel, [_value(spec, lambda: data.draw(_FLOAT))
                           for spec in const_specs + sample_specs])


# angles at the branch points of `so3._expm_coeffs`: zero, a few ulps
# either side of the small-angle bound 1e-8, inf and NaN
_ANGLE = st.one_of(_SPECIAL, st.integers(-4, 4).map(
    lambda k: 1e-8 + k * math.ulp(1e-8)), st.floats(0.0, 4.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), theta=_ANGLE, axis=st.integers(0, 2),
       c=st.one_of(st.sampled_from([1.0, -1.0]), _FLOAT))
def test_generated_mul_expm_equals_its_source_on_floats(data, theta, axis,
                                                        c):
    # floats only: its branch, `so3._expm_coeffs`, is a float function
    r = [data.draw(_FLOAT) for _ in range(9)]
    v = [data.draw(st.sampled_from([0.0, -0.0])) for _ in range(3)]
    v[axis] = theta
    _check_floats(so3._mul_expm, (r, c, v))


@pytest.mark.parametrize("name", sorted(KERNELS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_generated_kernel_equals_its_source_on_columns(name, data):
    # run constants as floats, per-sample arguments as (n,) columns, as
    # the run post-pass calls the kernels
    kernel, const_specs, sample_specs = KERNELS[name]
    n = data.draw(st.integers(1, 5))
    args = [_value(spec, lambda: data.draw(_FLOAT)) for spec in const_specs]
    args += [np.array([[data.draw(_FLOAT) for _ in range(n)]
                       for _ in range(spec)]) for spec in sample_specs]
    with np.errstate(all="ignore"):
        got, want = _leaves(kernel(*args)), _leaves(kernel.__wrapped__(*args))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape == (n,)
        assert a.tobytes() == b.tobytes()


def _rotor_reference():
    cfg = scenario.resolve_reference(scenario.benchmark_config("sinusoid"))
    return scenario._rotor_field(cfg.reference.params, cfg.program._torque)


def _plant():
    cfg = scenario.resolve_reference(scenario.benchmark_config(
        "sinusoid", gains=scenario.certified_gains()))
    loop = scenario._plant_loop(cfg, "internal")
    ref = so3.components(so3.expm([0.2, -0.4, 0.1]), 2) + [
        0.3, -0.2, 0.5, 0.1, 0.0, -0.3]
    return lambda t, r, vec: loop(t, r, vec, ref)[:2]


# width of the vector state -> a package field of that width
FIELDS = {
    3: lambda: dynamics.free_body_field(scenario.BENCHMARK_PLANT_I),
    6: lambda: control.error_field(scenario.BENCHMARK_PLANT_I,
                                   np.diag([2.0, 1.5, 1.0]),
                                   scenario.certified_gains()),
    9: _rotor_reference,
    12: _plant,
}


def _logged(field, log):
    """``field``, logging the bits of each call's arguments."""
    def wrapper(t, r, vec):
        log.append((t, tuple(r), type(vec), list(vec)))
        return field(t, r, vec)
    return wrapper


def _bits(x):
    return np.array(_leaves(x), dtype=float).tobytes()


@pytest.mark.parametrize("reproject", [True, False],
                         ids=["reproject", "no reproject"])
@pytest.mark.parametrize("scheme", integrators.SCHEMES)
@pytest.mark.parametrize("width", sorted(FIELDS))
@settings(max_examples=20, deadline=None)
@given(axis=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       vec=st.lists(st.floats(-3.0, 3.0), min_size=12, max_size=12),
       t=st.floats(0.0, 30.0), h=st.sampled_from([1e-3, 0.05, 0.3]))
def test_generated_step_equals_its_source(width, scheme, reproject, axis,
                                          vec, t, h):
    field = FIELDS[width]()
    state = tuple(so3.expm(axis).ravel().tolist()), vec[:width]
    got_log, want_log = [], []
    got = integrators._step(scheme, reproject, width)(
        _logged(field, got_log), t, state, h)
    want = integrators._step_source(_logged(field, want_log), t, state, h,
                                    scheme, reproject)
    assert [type(part) for part in got] == [type(part) for part in want]
    assert _bits(got) == _bits(want)
    assert len(got_log) == len(want_log) == (1 if scheme == "lie_euler"
                                             else 4)
    for (t1, r1, type1, v1), (t2, r2, type2, v2) in zip(got_log, want_log):
        assert type1 is type2
        assert _bits((t1, r1, v1)) == _bits((t2, r2, v2))


def test_unknown_scheme_raises_at_every_step():
    field, state = FIELDS[3](), (so3._IDENTITY, [0.1] * 3)
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown scheme 'rk5'"):
            integrators.step_lie(field, 0.0, state, 0.01, "rk5")


def test_kernel_branching_on_a_value_fails_at_generation():
    def clipped(a):
        x, y = a
        if x < y:
            return x
        return y

    def truthy(a):
        x, _ = a
        return x if x else -x

    for kernel in (clipped, truthy):
        with pytest.raises(TypeError):
            codegen.generate(kernel, 2)


def test_generated_source_binds_shared_values_and_drops_unused_ones():
    def kernel(a, b, gains):
        x = a * b   # used twice: bound to a local
        a / b       # unused: dropped
        return x + x - gains.kp, -(a - b) * 2.0

    assert codegen.generate(kernel, None, None, _GAINS).source == (
        "def kernel(a, b, gains):\n"
        "    _0 = a * b\n"
        "    return (_0 + _0 - gains.kp, -(a - b) * 2.0)\n")


# Random straight-line kernels: `programs` draws the source of a kernel of
# a scalar ``s``, a box ``v`` of 3, a box ``m`` of a box of 2 and one of
# 3 and gains ``g``, whose statements combine earlier values, read boxes
# by unpacking and by index and call ``opaque``, and whose outputs use
# some values more than once and leave others unused.  It also gives the
# same source without the unused statements (a call is never unused):
# the generated kernel must equal that on every input, exceptions
# included, and the whole source wherever the source returns.

_SPECS = (None, 3, (2, 3), "kp ki")


def _opaque(a, b):
    return a - b, a * b


@st.composite
def programs(draw):
    head = ["def kernel(s, v, m, g):"]
    pool = ["s", "v[0]", "v[2]", "m[0][1]", "m[1][2]", "g.kp", "g.ki"]
    if draw(st.booleans()):
        head.append("    v0, v1, v2 = v")
        pool += ["v0", "v1", "v2"]
    if draw(st.booleans()):
        head.append("    (p0, p1), (q0, q1, q2) = m")
        pool += ["p0", "q0", "q2"]
    statements = []   # (text, the statement's name or None for a call,
    #                   the names of earlier statements it reads)

    def operand(*constants):
        # as often a statement's value as anything else, so that values
        # are read once (and written inline) as well as more often
        values = [x for x in pool if x.startswith("x")]
        if values and draw(st.booleans()):
            return draw(st.sampled_from(values))
        return draw(st.sampled_from(pool + list(constants)))

    for k in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["+", "-", "*", "/", "neg", "call"]))
        a, b = operand(), operand("2.0", "-0.5", "3.0")
        reads = {x.split("[")[0] for x in ((a,) if kind == "neg" else (a, b))
                 if x.startswith("x")}
        if kind == "call":
            if draw(st.booleans()):
                text = f"x{k}, x{k}b = opaque({a}, {b})"
                pool += [f"x{k}", f"x{k}b"]
            else:
                text = f"x{k} = opaque({a}, {b})"
                pool += [f"x{k}[0]", f"x{k}[1]"]
            statements.append((text, None, reads))
            continue
        text = f"-{a}" if kind == "neg" else f"{a} {kind} {b}"
        statements.append((f"x{k} = {text}", f"x{k}", reads))
        pool.append(f"x{k}")
    outputs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    extra = draw(st.lists(st.sampled_from(pool), max_size=2))
    tail = f"    return ({', '.join(outputs)},), [{', '.join(extra)}]"
    live = {x.split("[")[0] for x in outputs + extra}
    kept = []
    for text, name, reads in reversed(statements):
        if name is None or name in live:
            live |= reads
            kept.append(text)
    body = [text for text, _, _ in statements]
    return ["\n".join(head + [f"    {x}" for x in lines] + [tail])
            for lines in (body, kept[::-1])]


def _function(source):
    namespace = {"opaque": _opaque}
    exec(source, namespace)
    return namespace["kernel"]


def _same_outcome(got, want):
    if isinstance(want, type) or isinstance(got, type):
        return got is want
    if isinstance(want, (tuple, list)):
        return type(got) is type(want) and len(got) == len(want) and all(
            _same_outcome(a, b) for a, b in zip(got, want))
    if isinstance(want, np.ndarray):
        return got.shape == want.shape and got.tobytes() == want.tobytes()
    return type(got) is type(want) and _same_float(got, want)


def _check(program, args):
    """The generated kernel of ``program`` against its source without the
    unused statements on ``args``, and against the whole source where
    that returns."""
    source, pruned = map(_function, program)
    generated = codegen.generate(source, *_SPECS, calls={"opaque": 2})
    got = _outcome(generated, args)
    assert _same_outcome(got, _outcome(pruned, args)), generated.source
    want = _outcome(source, args)
    if not isinstance(want, type):
        assert _same_outcome(got, want), generated.source


@settings(max_examples=300, deadline=None)
@given(program=programs(), data=st.data())
def test_random_kernel_generates_its_source_on_floats(program, data):
    _check(program, [data.draw(_FLOAT)] + [
        _value(spec, lambda: data.draw(_FLOAT)) for spec in _SPECS[1:]])


@settings(max_examples=100, deadline=None)
@given(program=programs(), data=st.data())
def test_random_kernel_generates_its_source_on_columns(program, data):
    # the gains stay floats, as a kernel's run constants are
    n = data.draw(st.integers(1, 4))

    def column():
        return np.array([data.draw(_FLOAT) for _ in range(n)])

    _check(program, [
        column(), [column() for _ in range(3)],
        ([column() for _ in range(2)], [column() for _ in range(3)]),
        _value("kp ki", lambda: data.draw(_FLOAT))])
