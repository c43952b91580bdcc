"""Flat key-value scenario files.

Format: one ``section.key = value`` per line, ``#`` comments, blank lines
ignored.  Values are whitespace-separated numbers (matrices row-major),
bare words for enumerations, ``true``/``false`` for flags.  Each ``R0``
must be a rotation matrix within 1e-9, a rule `scenario.BodySetup`
enforces and this parser reports against the ``R0`` key.  Initial body
rates may be given directly (``plant.Omega0``) or as a momentum-style seed
(``plant.IOmega0``, meaning Omega0 = I^{-1} @ value); the reference rotor
rate accepts the word ``derive`` to be filled from the plant's momentum
level set.

`parse_config` resolves every default and derived quantity, so
serialize(parse(text)) is canonical and parsing it again is idempotent.
"""

import warnings

import numpy as np

from .control import (NavigationWeights, _default_kappa, gain_derive,
                      lambda_sup_formula, mu_hess_formula)
from .dynamics import InertiaParams, rotor_inertia_matrix
from .errors import ConfigParseError, KappaOutOfRangeError
from .integrators import SCHEMES, IntegratorConfig
from .scenario import (PROGRAM_KINDS, BodySetup, ReferenceProgram,
                       ScenarioConfig, resolve_reference)

_KNOWN_KEYS = {
    "plant.I": 9, "plant.K": 3, "plant.R0": 9, "plant.Theta0": 3,
    "plant.Omega0": 3, "plant.IOmega0": 3, "plant.OmegaR0": 3,
    "reference.I": 9, "reference.K": 3, "reference.R0": 9,
    "reference.Theta0": 3, "reference.Omega0": 3, "reference.IOmega0": 3,
    "reference.OmegaR0": 3, "reference.program": None,
    "reference.amplitude": 3,
    "weights.P": 9,
    "gains.kp": 1, "gains.kd": 1, "gains.ki": 1, "gains.kappa": 1,
    "gains.mu_hess": 1, "gains.lambda_sup": 1,
    "integrator.scheme": None, "integrator.step": 1,
    "integrator.duration": 1, "integrator.reproject": None,
}

_REQUIRED = ("plant.I", "plant.K", "plant.R0", "plant.OmegaR0",
             "reference.I", "reference.K", "reference.R0",
             "reference.program", "gains.kp", "gains.kd", "gains.ki",
             "integrator.step", "integrator.duration")


def _read_pairs(text):
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError("expected 'key = value'", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigParseError("unknown key", key=key, line=lineno)
        if key in pairs:
            raise ConfigParseError("duplicate key", key=key, line=lineno)
        if not value:
            raise ConfigParseError("empty value", key=key, line=lineno)
        pairs[key] = (value, lineno)
    return pairs


def _numbers(pairs, key, count):
    value, lineno = pairs[key]
    try:
        nums = np.array([float(tok) for tok in value.split()])
    except ValueError:
        raise ConfigParseError("not a number list", key=key, line=lineno)
    if nums.size != count:
        raise ConfigParseError(f"expected {count} numbers, got {nums.size}",
                               key=key, line=lineno)
    if not np.isfinite(nums).all():
        raise ConfigParseError("values must be finite", key=key, line=lineno)
    return nums.reshape(3, 3) if count == 9 else (nums if count > 1 else float(nums[0]))


def _word(pairs, key, allowed):
    value, lineno = pairs[key]
    if value not in allowed:
        raise ConfigParseError(f"must be one of {sorted(allowed)}",
                               key=key, line=lineno)
    return value


def _body(pairs, section):
    try:
        rotors = rotor_inertia_matrix(_numbers(pairs, f"{section}.K", 3))
    except ValueError as exc:
        raise ConfigParseError(str(exc), key=f"{section}.K")
    try:
        params = InertiaParams(_numbers(pairs, f"{section}.I", 9), rotors)
    except ValueError as exc:
        raise ConfigParseError(str(exc), key=f"{section}.I")
    r0 = _numbers(pairs, f"{section}.R0", 9)
    direct = f"{section}.Omega0" in pairs
    seeded = f"{section}.IOmega0" in pairs
    if direct == seeded:
        raise ConfigParseError("exactly one of Omega0 / IOmega0 required",
                               key=f"{section}.Omega0")
    # the key each BodySetup field comes from
    keys = {name: f"{section}.{name}"
            for name in ("R0", "Omega0", "OmegaR0", "Theta0")}
    if direct:
        omega0 = _numbers(pairs, keys["Omega0"], 3)
    else:
        keys["Omega0"] = f"{section}.IOmega0"
        omega0 = np.linalg.solve(params.body_inertia,
                                 _numbers(pairs, keys["Omega0"], 3))
    theta0 = _numbers(pairs, f"{section}.Theta0", 3) \
        if f"{section}.Theta0" in pairs else np.zeros(3)

    omega_r0 = None
    key = f"{section}.OmegaR0"
    if key in pairs:
        value, lineno = pairs[key]
        if value == "derive":
            if section == "plant":
                raise ConfigParseError("plant rotor rate cannot be derived",
                                       key=key, line=lineno)
        else:
            omega_r0 = _numbers(pairs, key, 3)
    try:
        return BodySetup(params=params, R0=r0, Omega0=omega0,
                         OmegaR0=omega_r0, Theta0=theta0)
    except ValueError as exc:
        # BodySetup's message names the offending field first, except R0's
        key = keys.get(str(exc).split()[0], keys["R0"])
        raise ConfigParseError(str(exc), key=key, line=pairs[key][1])


def parse_config(text):
    """Parse scenario text into a fully resolved ScenarioConfig.

    Raises ConfigParseError naming the offending key and line.
    """
    pairs = _read_pairs(text)
    for key in _REQUIRED:
        if key not in pairs:
            raise ConfigParseError("missing required key", key=key)

    plant = _body(pairs, "plant")
    reference = _body(pairs, "reference")

    kind = _word(pairs, "reference.program", set(PROGRAM_KINDS))
    amplitude = _numbers(pairs, "reference.amplitude", 3) \
        if "reference.amplitude" in pairs else None
    program = ReferenceProgram(kind, amplitude)

    p_mat = _numbers(pairs, "weights.P", 9) if "weights.P" in pairs \
        else np.eye(3)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # repeated eigenvalues are legal
            weights = NavigationWeights(p_mat)
    except ValueError as exc:
        raise ConfigParseError(str(exc), key="weights.P")

    mu = _numbers(pairs, "gains.mu_hess", 1) if "gains.mu_hess" in pairs \
        else mu_hess_formula(plant.params.body_inertia)
    lam = _numbers(pairs, "gains.lambda_sup", 1) \
        if "gains.lambda_sup" in pairs \
        else lambda_sup_formula(plant.params.body_inertia)
    kappa = _numbers(pairs, "gains.kappa", 1) if "gains.kappa" in pairs \
        else _default_kappa(mu)
    try:
        gains = gain_derive(_numbers(pairs, "gains.kp", 1),
                            _numbers(pairs, "gains.kd", 1),
                            _numbers(pairs, "gains.ki", 1),
                            kappa, mu, lam)
    except KappaOutOfRangeError as exc:
        raise ConfigParseError(str(exc), key="gains.kappa")
    except ValueError as exc:
        raise ConfigParseError(str(exc), key="gains.kp")

    scheme = _word(pairs, "integrator.scheme", set(SCHEMES)) \
        if "integrator.scheme" in pairs else "rk4_munthe_kaas"
    reproject = True
    if "integrator.reproject" in pairs:
        reproject = _word(pairs, "integrator.reproject",
                          {"true", "false"}) == "true"
    try:
        integrator = IntegratorConfig(
            step=_numbers(pairs, "integrator.step", 1),
            duration=_numbers(pairs, "integrator.duration", 1),
            scheme=scheme, reproject=reproject)
    except ValueError as exc:
        raise ConfigParseError(str(exc), key="integrator.step")

    cfg = ScenarioConfig(plant=plant, reference=reference, program=program,
                         weights=weights, gains=gains, integrator=integrator)
    try:
        # an overflowing momentum shows up as BodySetup's finiteness error
        with np.errstate(over="ignore", invalid="ignore"):
            return resolve_reference(cfg)
    except ValueError as exc:
        key = "reference.OmegaR0"
        raise ConfigParseError(str(exc), key=key,
                               line=pairs.get(key, (None, None))[1])


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_config(fh.read())
        except UnicodeDecodeError as exc:
            raise ConfigParseError(f"not UTF-8 text: {exc}") from None


def _fmt(values):
    arr = np.asarray(values, dtype=float).ravel()
    return " ".join(repr(float(x)) for x in arr)


def serialize_config(cfg):
    """Canonical text for a (resolved) ScenarioConfig."""
    cfg = resolve_reference(cfg)
    g = cfg.gains
    lines = [
        f"plant.I = {_fmt(cfg.plant.params.body_inertia)}",
        f"plant.K = {_fmt(np.diag(cfg.plant.params.rotor_inertia))}",
        f"plant.R0 = {_fmt(cfg.plant.R0)}",
        f"plant.Theta0 = {_fmt(cfg.plant.Theta0)}",
        f"plant.Omega0 = {_fmt(cfg.plant.Omega0)}",
        f"plant.OmegaR0 = {_fmt(cfg.plant.OmegaR0)}",
        f"reference.I = {_fmt(cfg.reference.params.body_inertia)}",
        f"reference.K = {_fmt(np.diag(cfg.reference.params.rotor_inertia))}",
        f"reference.R0 = {_fmt(cfg.reference.R0)}",
        f"reference.Theta0 = {_fmt(cfg.reference.Theta0)}",
        f"reference.Omega0 = {_fmt(cfg.reference.Omega0)}",
        f"reference.OmegaR0 = {_fmt(cfg.reference.OmegaR0)}",
        f"reference.program = {cfg.program.kind}",
        f"reference.amplitude = {_fmt(cfg.program.amplitude)}",
        f"weights.P = {_fmt(cfg.weights.P)}",
        f"gains.kp = {g.kp!r}",
        f"gains.kd = {g.kd!r}",
        f"gains.ki = {g.ki!r}",
        f"gains.kappa = {g.kappa!r}",
        f"gains.mu_hess = {g.mu_hess!r}",
        f"gains.lambda_sup = {g.lambda_sup!r}",
        f"integrator.scheme = {cfg.integrator.scheme}",
        f"integrator.step = {cfg.integrator.step!r}",
        f"integrator.duration = {cfg.integrator.duration!r}",
        f"integrator.reproject = {'true' if cfg.integrator.reproject else 'false'}",
    ]
    return "\n".join(lines) + "\n"
