"""The componentwise kernels: one source for floats and for columns.

Each per-sample formula of the closed loop is a kernel over scalar
components.  The integrator's vector field calls it on Python floats
(one sample, from ``arr.tolist()``) and the run post-pass on (n,)
columns (a stack, from ``so3.components``); both must give the same
numbers.  The final states of short benchmark runs are pinned to values
recorded before the stepper moved onto floats.
"""

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gyrotrack import control, dynamics, integrators, scenario, so3

from conftest import joint_loop

# final (R, Omega, xi_I, psi_E) of 1 s runs of the benchmark scenario,
# recorded with the array-based stepper; keyed (program, gains, actuation)
PINNED = {
    ('zero', 'stored', 'internal'): (
        (0.5450497127244601, 0.16214273268429513, -0.8225755557373757,
         -0.5757336523893943, 0.7856000894748807, -0.2266346419315181,
         0.609468270023429, 0.5971115755491001, 0.5215421307813204),
        (0.37580123099854035, 0.8046067251108442, -0.015571040787492182),
        (-0.2875012670470786, 0.2967660751084756, 0.05682871704647622),
        0.8853200455980068),
    ('zero', 'stored', 'external'): (
        (0.54504971272446, 0.16214273268429583, -0.8225755557373757,
         -0.5757336523893951, 0.7856000894748802, -0.22663464193151792,
         0.6094682700234285, 0.5971115755491005, 0.5215421307813205),
        (0.37580123099854024, 0.8046067251108435, -0.015571040787492038),
        (-0.2875012670470787, 0.2967660751084756, 0.05682871704647635),
        0.8853200455980073),
    ('zero', 'certified', 'internal'): (
        (0.6867164523044174, 0.23217059364095857, -0.6888521826798836,
         -0.44255646081618405, 0.8852970046335722, -0.14280403557560303,
         0.5766838762478869, 0.4029218646775447, 0.7106966144850291),
        (0.15189955951532347, 1.0000816264078685, 0.06954093360789772),
        (-0.2356962788275105, 0.29391344354772103, 0.03532421832800623),
        0.5051669287590763),
    ('zero', 'certified', 'external'): (
        (0.686716452304418, 0.23217059364095813, -0.688852182679883,
         -0.44255646081618366, 0.8852970046335723, -0.14280403557560375,
         0.5766838762478864, 0.40292186467754476, 0.7106966144850295),
        (0.15189955951532344, 1.0000816264078678, 0.06954093360789755),
        (-0.23569627882751062, 0.293913443547721, 0.03532421832800627),
        0.505166928759075),
    ('constant', 'stored', 'internal'): (
        (0.5241447005781071, 0.1690230448426678, -0.8346876919950359,
         -0.6068275679247087, 0.7617893197097014, -0.22679800524434357,
         0.5975220796443168, 0.6253864746605444, 0.5018556781079465),
        (0.3682508194188593, 0.790197990156413, -0.09804318331311167),
        (-0.28750126704707846, 0.2967660751084791, 0.05682871704647754),
        0.8853200455980472),
    ('constant', 'stored', 'external'): (
        (0.5241447005781077, 0.1690230448426677, -0.8346876919950356,
         -0.6068275679247079, 0.7617893197097021, -0.22679800524434343,
         0.5975220796443174, 0.6253864746605435, 0.5018556781079471),
        (0.36825081941885945, 0.7901979901564132, -0.09804318331311186),
        (-0.2875012670470782, 0.296766075108479, 0.05682871704647744),
        0.8853200455980454),
    ('constant', 'certified', 'internal'): (
        (0.6656630931571982, 0.2458527842542954, -0.7045914098843401,
         -0.4757277894457818, 0.8672500134066898, -0.1468348888892764,
         0.5749571434093338, 0.43293628020819314, 0.6942553280473055),
        (0.13922347930375512, 0.9789999493728601, -0.01151722540815774),
        (-0.23569627882751254, 0.29391344354772553, 0.035324218328006037),
        0.5051669287591105),
    ('constant', 'certified', 'external'): (
        (0.6656630931571987, 0.24585278425429574, -0.7045914098843395,
         -0.4757277894457814, 0.8672500134066902, -0.1468348888892759,
         0.5749571434093336, 0.43293628020819236, 0.6942553280473059),
        (0.13922347930375534, 0.9789999493728597, -0.011517225408157961),
        (-0.2356962788275124, 0.2939134435477254, 0.03532421832800605),
        0.5051669287591096),
    ('sinusoid', 'stored', 'internal'): (
        (0.4876337149496145, 0.15981187517595305, -0.8582968743955577,
         -0.6592311892662229, 0.7119426183252396, -0.2419750964683009,
         0.5723876301450614, 0.6838112844673944, 0.4525201963360007),
        (0.40143384922232056, 0.7523017567108353, -0.29338948405594356),
        (-0.28750126704708806, 0.2967660751084755, 0.056828717046488335),
        0.8853200455980881),
    ('sinusoid', 'stored', 'external'): (
        (0.4876337149496146, 0.15981187517595283, -0.8582968743955576,
         -0.6592311892662235, 0.7119426183252388, -0.24197509646830187,
         0.5723876301450604, 0.6838112844673954, 0.4525201963360004),
        (0.40143384922232034, 0.7523017567108352, -0.2933894840559435),
        (-0.28750126704708834, 0.2967660751084757, 0.056828717046488265),
        0.8853200455980885),
    ('sinusoid', 'certified', 'internal'): (
        (0.6279397854538239, 0.2512351756123179, -0.7365952160985391,
         -0.5325801679287648, 0.8288605095128225, -0.1713143908114924,
         0.5674944850597, 0.49987112569660586, 0.65427736253185),
        (0.16384987824826314, 0.9309020357385438, -0.20828812811492506),
        (-0.2356962788275279, 0.29391344354772453, 0.035324218328014655),
        0.5051669287591407),
    ('sinusoid', 'certified', 'external'): (
        (0.6279397854538249, 0.2512351756123184, -0.7365952160985381,
         -0.5325801679287644, 0.828860509512823, -0.17131439081149216,
         0.5674944850596996, 0.49987112569660497, 0.6542773625318511),
        (0.16384987824826372, 0.9309020357385429, -0.20828812811492525),
        (-0.23569627882752764, 0.2939134435477244, 0.035324218328014634),
        0.5051669287591389),
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_final_state_pinned(key):
    program, gains, actuation = key
    cfg = scenario.benchmark_config(
        program=program, gains=_GAINS if gains == "certified" else None,
        duration=1.0)
    traj, metrics = scenario.run_closed_loop(cfg, actuation=actuation)
    r, omega, xi, psi = PINNED[key]
    assert np.abs(traj.R[-1].ravel() - r).max() <= 1e-10
    assert np.abs(traj.Omega[-1] - omega).max() <= 1e-10
    assert np.abs(traj.xi_I[-1] - xi).max() <= 1e-10
    assert abs(metrics.psi_e[-1] - psi) <= 1e-10


_PLANT = scenario.benchmark_plant().params
_GAINS = scenario.certified_gains()
_P = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
_METRIC = so3.metric_constants(_PLANT.body_inertia)
_CONSTANTS = {
    "i": _METRIC[0],
    "i_inv": _METRIC[1],
    "gamma": _METRIC[2],
    "p": so3.components(_P, 2),
    "plant": dynamics.kernel_constants(_PLANT),
}
_ERROR_FIELD = control.error_field(_PLANT.body_inertia, _P, _GAINS)
_LOOP_CFG = scenario.resolve_reference(
    scenario.benchmark_config("sinusoid", gains=_GAINS))


def _transpose(m):
    """The components of M^T, from those of M."""
    return tuple(m[3 * j + i] for i in range(3) for j in range(3))


def _conn(gamma, a, b):
    """nabla_a b, as `so3.connection_term` forms it from Gamma."""
    return so3._matvec(so3._conn_matrix(gamma, a), b)


# name -> (kernel, per-sample shapes of its arguments)
KERNELS = {
    "cross": (so3._cross, ((3,), (3,))),
    "matvec": (so3._matvec, ((3, 3), (3,))),
    "matvec_t": (lambda m, v: so3._matvec(_transpose(m), v),
                 ((3, 3), (3,))),
    "matmul": (so3._matmul, ((3, 3), (3, 3))),
    "matmul_t": (lambda a, b: so3._matmul(a, _transpose(b)),
                 ((3, 3), (3, 3))),
    "skew_vee": (so3._skew_vee, ((3, 3),)),
    "conn": (lambda a, b: _conn(_CONSTANTS["gamma"], a, b),
             ((3,), (3,))),
    "conn_matrix": (lambda a: so3._conn_matrix(_CONSTANTS["gamma"], a),
                    ((3,),)),
    "euler": (lambda a: so3._euler(_CONSTANTS["i"], _CONSTANTS["i_inv"], a),
              ((3,),)),
    "momentum": (lambda w, wr: dynamics._momentum(_CONSTANTS["plant"], w, wr),
                 ((3,), (3,))),
    "rotor_accels": (lambda w, wr, u: dynamics._rotor_accels(
        _CONSTANTS["plant"], w, wr, u),
                     ((3,), (3,), (3,))),
    "error": (control._error, ((3, 3), (3,), (3, 3), (3,))),
    "dpsi": (lambda e: control._dpsi(_CONSTANTS["p"], e), ((3, 3),)),
    "feedback": (lambda e, eta, xi: control._feedback(
        _METRIC, _CONSTANTS["p"], _GAINS, e, eta, xi),
                 ((3, 3), (3,), (3,))),
    "error_field": (lambda e, vec: _ERROR_FIELD(0.0, e, vec),
                    ((3, 3), (6,))),
    "loop_kernel": (lambda *args: control._loop_kernel(
        _METRIC, _CONSTANTS["p"], _GAINS, *args),
        ((3, 3), (3,), (3, 3), (3,), (3,), (3,))),
    "uint": (lambda u, w, wr: control._uint(_CONSTANTS["plant"], u, w, wr),
             ((3,), (3,), (3,))),
    "dexpinv_right": (lambda k, b: integrators._dexpinv_right(0.5, k, b),
                      ((3,), (3,))),
    "snap_so3": (integrators._snap_so3, ((3, 3),)),
}


def _leaves(out):
    """Scalar components of a kernel output, however it is nested."""
    if isinstance(out, (tuple, list)):
        return [leaf for part in out for leaf in _leaves(part)]
    return [out]


def _stacks(n, shapes):
    return st.tuples(*(arrays(np.float64, (n,) + shape,
                              elements=st.floats(-3.0, 3.0))
                       for shape in shapes))


@pytest.mark.parametrize("name", sorted(KERNELS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_float_call_matches_column_row(name, data):
    kernel, shapes = KERNELS[name]
    n = data.draw(st.integers(1, 6))
    stacks = data.draw(_stacks(n, shapes))
    columns = _leaves(kernel(*(so3.components(s, len(shape))
                               for s, shape in zip(stacks, shapes))))
    for k in range(n):
        floats = _leaves(kernel(*(s[k].ravel().tolist() for s in stacks)))
        assert len(floats) == len(columns)
        for value, column in zip(floats, columns):
            assert isinstance(value, float)
            assert column.shape == (n,)
            assert abs(column[k] - value) <= 1e-12


@pytest.mark.parametrize("kind", ["zero", "constant", "sinusoid"])
@settings(max_examples=30, deadline=None)
@given(amplitude=arrays(np.float64, 3, elements=st.floats(-5.0, 5.0)),
       times=arrays(np.float64, st.integers(1, 6),
                    elements=st.floats(0.0, 100.0)))
def test_torque_at_scalar_time_matches_time_grid(kind, amplitude, times):
    program = scenario.ReferenceProgram(kind, amplitude)
    columns = program._torque(times)
    for k, t in enumerate(times.tolist()):
        floats = program._torque(t)
        assert all(isinstance(value, float) for value in floats)
        for c in range(3):
            assert abs(columns[c][k] - floats[c]) <= 1e-12


# `_dpsi` (inside the generated kernels, which drop the diagonal of P E)
# and the snap form only the entries they read, with the same products in
# the same order, so they equal the full products bit for bit.

@settings(max_examples=200, deadline=None)
@given(p=arrays(np.float64, (3, 3), elements=st.floats(-3.0, 3.0)),
       e=arrays(np.float64, (3, 3), elements=st.floats(-3.0, 3.0)))
def test_dpsi_equals_skew_part_of_full_product(p, e):
    p, e = p.ravel().tolist(), e.ravel().tolist()
    assert control._dpsi(p, e) == so3._skew_vee(so3._matmul(p, e))


@settings(max_examples=200, deadline=None)
@given(r=arrays(np.float64, (3, 3), elements=st.floats(-3.0, 3.0)))
def test_snap_so3_equals_full_gram_step(r):
    r = r.ravel().tolist()
    m = so3._matmul(so3._matmul(r, _transpose(r)), r)
    assert integrators._snap_so3(r) == tuple(
        1.5 * a - 0.5 * b for a, b in zip(r, m))


# `_matmul` is `_matvec` on each column of B, so each entry of A B, and
# of A B^T through `_transpose`, is still the left-to-right sum of its
# three products: bit for bit, with signed zeros, infinities and NaN
# (``sum`` would start from 0 and turn a -0.0 sum into 0.0).  A NaN
# compares as any NaN: which of two NaN operands a float ``+`` passes
# on, and so its sign, changes once CPython specializes the addition
# after warm-up, so it is not a property of the formula.

_SPECIAL = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(-3.0, 3.0))


def _left_to_right(a, b, at):
    """Row-major entries sum_k a[3 i + k] b[at(k, j)], summed in order."""
    return [functools.reduce(operator.add, (a[3 * i + k] * b[at(k, j)]
                                            for k in range(3)))
            for i in range(3) for j in range(3)]


def _bits(entries):
    x = np.array(entries, dtype=np.float64)
    return np.where(np.isnan(x), math.nan, x).tobytes()


@settings(max_examples=200, deadline=None)
@given(n=st.one_of(st.none(), st.integers(1, 4)), data=st.data())
def test_matmul_equals_left_to_right_sums(n, data):
    # n None: one sample on floats; else (n,) columns of an (n, 3, 3) stack
    shape = (3, 3) if n is None else (n, 3, 3)
    a, b = (so3.components(data.draw(arrays(np.float64, shape,
                                            elements=_SPECIAL)), 2)
            for _ in range(2))
    with np.errstate(invalid="ignore"):
        assert _bits(so3._matmul(a, b)) == _bits(
            _left_to_right(a, b, lambda k, j: 3 * k + j))
        assert _bits(so3._matmul(a, _transpose(b))) == _bits(
            _left_to_right(a, b, lambda k, j: 3 * j + k))


@settings(max_examples=200, deadline=None)
@given(m=arrays(np.float64, (3, 3), elements=st.floats(-2.0, 2.0)),
       n=st.one_of(st.none(), st.integers(1, 4)), data=st.data())
def test_conn_matrix_equals_left_to_right_sums(m, n, data):
    # entry (k, j) of C(a) is sum_i a_i Gamma[3 i + j][k], summed in order,
    # for a table Gamma of an SPD metric, which is finite; n as above
    _, _, gamma = so3.metric_constants(_spd(m))
    a = so3.components(data.draw(arrays(
        np.float64, (3,) if n is None else (n, 3), elements=_SPECIAL)))
    with np.errstate(invalid="ignore"):
        assert _bits(so3._conn_matrix(gamma, a)) == _bits(
            [functools.reduce(operator.add, (a[i] * gamma[3 * (3 * i + j) + k]
                                             for i in range(3)))
             for k in range(3) for j in range(3)])


# The paper-level kernels, generated as straight-line code where a vector
# field calls them, equal the composition of `so3` primitives bit for bit.

def _spd(m):
    return m @ m.T + 0.5 * np.eye(3)


_VECTOR = arrays(np.float64, 3, elements=st.floats(-3.0, 3.0))
_MATRIX = arrays(np.float64, (3, 3), elements=st.floats(-2.0, 2.0))
_POSITIVES = st.tuples(*[st.floats(0.1, 10.0)] * 3)
_COMPOSED = settings(max_examples=200, deadline=None)


def _vectors(n):
    return st.tuples(*[_VECTOR] * n).map(lambda vs: [v.tolist() for v in vs])


def _matrices(n):
    return st.tuples(*[_MATRIX] * n).map(
        lambda ms: [m.ravel().tolist() for m in ms])


def _diff(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _composed_error(r, omega, r_d, omega_d):
    return (so3._matmul(r_d, _transpose(r)),
            so3._matvec(r, _diff(omega_d, omega)))


def _composed_feedback(metric, p, gains, e, eta, xi):
    _, i_inv, gamma = metric
    c_eta = so3._conn_matrix(gamma, eta)
    g = so3._matvec(i_inv, control._dpsi(p, e))
    n = so3._matvec(c_eta, eta)
    fb = tuple(gains.kp * gk + gains.kd * ek + gains.ki * xk + nk
               for gk, ek, xk, nk in zip(g, eta, xi, n))
    return fb, _diff(g, so3._matvec(c_eta, xi))


def _composed_loop_kernel(metric, p, gains, r, omega, r_d, omega_d,
                          omega_d_dot, xi):
    e, eta = control._error(r, omega, r_d, omega_d)
    fb, xi_dot = control._feedback(metric, p, gains, e, eta, xi)
    u = tuple(a + w + n + f for a, w, n, f in zip(
        omega_d_dot, so3._cross(omega, omega_d),
        so3._euler(metric[0], metric[1], omega),
        so3._matvec(_transpose(r), fb)))
    return u, so3._matvec(metric[0], u), xi_dot


def _composed_rotor_accels(consts, omega, omega_r, u):
    _, k, i_inv = consts
    f = so3._cross(dynamics._momentum(consts, omega, omega_r), omega)
    d = so3._matvec(i_inv, _diff(f, u))
    return d, tuple(uj / kj - dj for uj, kj, dj in zip(u, k, d))


def _composed_dexpinv_right(sigma, b):
    sxb = so3._cross(sigma, b)
    return tuple(bj + 0.5 * xj + yj / 12.0 for bj, xj, yj in zip(
        b, sxb, so3._cross(sigma, sxb)))


def _gains(kp, kd, ki):
    return control.GainSet(kp, kd, ki, 0.6, 2.0048, 1.42)


def _plant(m, k):
    return dynamics.kernel_constants(dynamics.InertiaParams(_spd(m), k))


@_COMPOSED
@given(m=_MATRIX, a=_VECTOR)
def test_euler_equals_composed_products(m, a):
    i, i_inv = so3.metric_inverse(_spd(m))
    a = a.tolist()
    assert so3._euler(i, i_inv, a) == so3._matvec(
        i_inv, so3._cross(a, so3._matvec(i, a)))


@_COMPOSED
@given(rs=_matrices(2), ws=_vectors(2))
def test_error_equals_composed_products(rs, ws):
    args = rs[0], ws[0], rs[1], ws[1]
    assert control._error(*args) == _composed_error(*args)


@_COMPOSED
@given(m=_MATRIX, ms=_matrices(2), vs=_vectors(2),
       gains=_POSITIVES)
def test_feedback_equals_composed_products(m, ms, vs, gains):
    args = (so3.metric_constants(_spd(m)), ms[0], _gains(*gains), ms[1],
            *vs)
    assert control._feedback(*args) == _composed_feedback(*args)


@_COMPOSED
@given(m=_MATRIX, ms=_matrices(3), vs=_vectors(4),
       gains=_POSITIVES)
def test_loop_kernel_equals_composed_products(m, ms, vs, gains):
    args = (so3.metric_constants(_spd(m)), ms[0], _gains(*gains), ms[1],
            vs[0], ms[2], *vs[1:])
    assert control._loop_kernel(*args) == _composed_loop_kernel(*args)


@_COMPOSED
@given(m=_MATRIX, k=_POSITIVES,
       vs=_vectors(3))
def test_uint_equals_composed_products(m, k, vs):
    (u, w, wr), k = vs, list(k)
    spin = tuple(kj * (wj + rj) for kj, wj, rj in zip(k, w, wr))
    assert control._uint(_plant(m, k), u, w, wr) == _diff(
        so3._cross(spin, w), u)


@_COMPOSED
@given(m=_MATRIX, k=_POSITIVES,
       vs=_vectors(3))
def test_rotor_accels_equals_composed_products(m, k, vs):
    consts = _plant(m, list(k))
    assert dynamics._rotor_accels(consts, *vs) == _composed_rotor_accels(
        consts, *vs)


@_COMPOSED
@given(c=st.floats(-2.0, 2.0), vs=_vectors(2))
def test_dexpinv_right_equals_composed_products(c, vs):
    k, b = vs
    assert integrators._dexpinv_right(c, k, b) == _composed_dexpinv_right(
        tuple(c * kj for kj in k), b)


@_COMPOSED
@given(r=_MATRIX, v=_VECTOR, scale=st.sampled_from([1.0, 1e-9]))
def test_mul_expm_equals_product_with_exponential(r, v, scale):
    # scale 1e-9 reaches the small-angle branch of the coefficients
    r, v = r.ravel().tolist(), (scale * v).tolist()
    assert so3._mul_expm(r, 1.0, v) == so3._matmul(
        r, so3._mul_expm(so3._IDENTITY, 1.0, v))


@_COMPOSED
@given(r=_MATRIX, c=st.floats(-2.0, 2.0), v=_VECTOR,
       scale=st.sampled_from([1.0, 1e-9]))
def test_mul_expm_equals_its_entries_written_out(r, c, v, scale):
    # in the docstring's order: c v first, then d = 1 - b theta^2 and the
    # Rodrigues entries Q, then R Q as `_matmul` forms it; scale 1e-9
    # reaches the small-angle branch of the coefficients
    r, (v0, v1, v2) = r.ravel().tolist(), (scale * v).tolist()
    x, y, z = c * v0, c * v1, c * v2
    theta2 = x * x + y * y + z * z
    theta = math.sqrt(theta2)
    if theta < so3._SMALL_ANGLE:
        a, b = 1.0 - theta2 / 6.0, 0.5 - theta2 / 24.0
    else:
        a, b = math.sin(theta) / theta, (1.0 - math.cos(theta)) / theta2
    d = 1.0 - b * theta2
    q = (d + b * x * x, b * x * y - a * z, b * x * z + a * y,
         b * x * y + a * z, d + b * y * y, b * y * z - a * x,
         b * x * z - a * y, b * y * z + a * x, d + b * z * z)
    assert so3._mul_expm(r, c, [v0, v1, v2]) == so3._matmul(r, q)


@_COMPOSED
@given(r=_MATRIX, c=st.floats(-2.0, 2.0), v=_VECTOR,
       scale=st.sampled_from([1.0, 1e-9]),
       bad=st.one_of(st.none(), st.tuples(
           st.integers(0, 3), st.sampled_from([math.inf, -math.inf,
                                               math.nan]))))
def test_mul_expm_applies_its_scale_first(r, c, v, scale, bad):
    # the stage scale multiplies each entry of v before anything else; an
    # inf or NaN in c or v (entry 3 of ``bad`` is c) gives a NaN matrix
    r, v = r.ravel().tolist(), (scale * v).tolist()
    if bad is not None:
        where, x = bad
        if where == 3:
            c = x
        else:
            v[where] = x
    got = so3._mul_expm(r, c, v)
    want = so3._mul_expm(r, 1.0, [c * x for x in v])
    if bad is None:
        assert got == want
    else:
        assert all(math.isnan(x) for x in got + want)


@_COMPOSED
@given(m=_MATRIX, k=_POSITIVES, vs=_vectors(2))
def test_momentum_equals_composed_products(m, k, vs):
    consts, (w, wr) = _plant(m, list(k)), vs
    assert dynamics._momentum(consts, w, wr) == tuple(
        p + kj * rj for p, kj, rj in zip(so3._matvec(consts[0], w), k, wr))


@pytest.mark.parametrize("actuation", ["internal", "external"])
@_COMPOSED
@given(ms=_matrices(2), vec=arrays(np.float64, 21,
                                   elements=st.floats(-3.0, 3.0)),
       t=st.floats(0.0, 30.0))
def test_closed_loop_torque_is_inertia_times_command(actuation, ms, vec, t):
    # the loop's u_ext is I u, with u the command of `_loop_kernel` on
    # the same sample, as `so3._matvec` forms it
    cfg = _LOOP_CFG
    loop = joint_loop(cfg, actuation)
    vec = vec.tolist()
    d_omega_d, _ = dynamics._rotor_accels(
        dynamics.kernel_constants(cfg.reference.params), vec[12:15],
        vec[15:18], cfg.program._torque(t))
    u, _, _ = control._loop_kernel(
        _METRIC, so3.components(cfg.weights.P, 2), cfg.gains, ms[0],
        vec[3:6], ms[1], vec[12:15], d_omega_d, vec[18:21])
    assert loop(t, ms, vec)[2] == so3._matvec(_METRIC[0], u)


# The connection kernels against independent oracles, on random metrics.
# The bound is relative to the largest sum of term magnitudes
# sum_ij |a_i b_j Gamma_ij^k| over k, since the table Gamma itself carries
# rounding of that relative size in every entry (the closed-form Euler
# term does not share it); below the normal float range rounding is
# absolute.

def _close(got, want, gamma, a, b):
    table = np.abs(np.reshape(gamma, (3, 3, 3)))
    scale = np.einsum("i,j,ijk->k", np.abs(a), np.abs(b), table)
    return np.all(np.abs(np.subtract(got, want))
                  <= 1e-12 * scale.max() + np.finfo(float).tiny)


def _contract27(gamma, a, b):
    """nabla_a b as the plain 27-term sum over the table Gamma."""
    table = np.reshape(gamma, (3, 3, 3))
    return [sum(a[i] * b[j] * table[i, j, k]
                for i in range(3) for j in range(3)) for k in range(3)]


@settings(max_examples=200, deadline=None)
@given(m=_MATRIX, a=_VECTOR, b=_VECTOR)
def test_conn_matches_27_term_contraction(m, a, b):
    _, _, gamma = so3.metric_constants(_spd(m))
    a, b = a.tolist(), b.tolist()
    assert _close(_conn(gamma, a, b), _contract27(gamma, a, b),
                  gamma, a, b)


@settings(max_examples=200, deadline=None)
@given(m=_MATRIX, a=_VECTOR)
def test_euler_is_diagonal_of_connection(m, a):
    i, i_inv, gamma = so3.metric_constants(_spd(m))
    a = a.tolist()
    assert _close(so3._euler(i, i_inv, a), _conn(gamma, a, a),
                  gamma, a, a)
