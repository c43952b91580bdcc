"""Generated kernels and steps against the sources they are generated from.

`codegen.generate` compiles a kernel's traced arithmetic into one
straight-line function.  It must give its source's bits on Python floats
and on numpy columns, including signed zeros, infinities and NaNs, raise
where its source raises, and make its opaque calls (the vector field and
`so3._mul_expm` in the step) with the same arguments in the same order.
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


@pytest.mark.parametrize("name", sorted(KERNELS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generated_kernel_equals_its_source_on_floats(name, data):
    kernel, const_specs, sample_specs = KERNELS[name]
    args = [_value(spec, lambda: data.draw(_FLOAT))
            for spec in const_specs + sample_specs]
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
    return lambda t, r, vec: loop(t, r, vec, ref)


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
