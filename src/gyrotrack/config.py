"""Flat key-value scenario files.

Format: one ``section.key = value`` per line, ``#`` comments, blank lines
ignored.  Values are whitespace-separated numbers (matrices row-major),
bare words for enumerations, ``true``/``false`` for flags (`_KEYS`).
Initial body rates may be given directly (``plant.Omega0``) or as a
momentum-style seed (``plant.IOmega0``, meaning Omega0 = I^{-1} @ value);
the reference rotor rate accepts the word ``derive`` to be filled from
the plant's momentum level set.

This parser checks only the text: known keys, each once, required ones
present, finite numbers of the right count, words from their sets.  Each
rule on the values lives in the record that owns it (`InertiaParams`,
`BodySetup`, `NavigationWeights`, `gain_derive`, `IntegratorConfig`,
`resolve_reference`), and one rule locates its failure (`_located`): a
ValueError or KappaOutOfRangeError is reported as ConfigParseError on
the key of the field the message names first, with that key's line, or
on the record's default key if it names none (``R0``'s "not a rotation
matrix"; none for a gain certificate leaving the float range, which no
single input causes).  `parse_config` resolves every default and derived
quantity, so serialize(parse(text)) is canonical, a fixed point of
serialize(parse(.)).
"""

import warnings
from operator import attrgetter

import numpy as np

from .control import (NavigationWeights, _default_kappa, gain_derive,
                      lambda_sup_formula, mu_hess_formula)
from .dynamics import InertiaParams
from .errors import ConfigParseError, KappaOutOfRangeError
from .integrators import SCHEMES, IntegratorConfig
from .scenario import (PROGRAM_KINDS, BodySetup, ReferenceProgram,
                       ScenarioConfig, resolve_reference)

# Every key in canonical order: how many numbers it holds (None for a
# word), whether it is required, and the attribute of a resolved
# ScenarioConfig that `serialize_config` writes (None for an input form).
_KEYS = {
    "plant.I": (9, True, "plant.params.body_inertia"),
    "plant.K": (3, True, "plant.params.rotor_inertia"),
    "plant.R0": (9, True, "plant.R0"),
    "plant.Theta0": (3, False, "plant.Theta0"),
    "plant.Omega0": (3, False, "plant.Omega0"),
    "plant.IOmega0": (3, False, None),
    "plant.OmegaR0": (3, True, "plant.OmegaR0"),
    "reference.I": (9, True, "reference.params.body_inertia"),
    "reference.K": (3, True, "reference.params.rotor_inertia"),
    "reference.R0": (9, True, "reference.R0"),
    "reference.Theta0": (3, False, "reference.Theta0"),
    "reference.Omega0": (3, False, "reference.Omega0"),
    "reference.IOmega0": (3, False, None),
    "reference.OmegaR0": (3, False, "reference.OmegaR0"),
    "reference.program": (None, True, "program.kind"),
    "reference.amplitude": (3, False, "program.amplitude"),
    "weights.P": (9, False, "weights.P"),
    "gains.kp": (1, True, "gains.kp"),
    "gains.kd": (1, True, "gains.kd"),
    "gains.ki": (1, True, "gains.ki"),
    "gains.kappa": (1, False, "gains.kappa"),
    "gains.mu_hess": (1, False, "gains.mu_hess"),
    "gains.lambda_sup": (1, False, "gains.lambda_sup"),
    "integrator.scheme": (None, False, "integrator.scheme"),
    "integrator.step": (1, True, "integrator.step"),
    "integrator.duration": (1, True, "integrator.duration"),
    "integrator.reproject": (None, False, "integrator.reproject"),
}


def _read_pairs(text):
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError("expected 'key = value'", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigParseError("unknown key", key=key, line=lineno)
        if key in pairs:
            raise ConfigParseError("duplicate key", key=key, line=lineno)
        if not value:
            raise ConfigParseError("empty value", key=key, line=lineno)
        pairs[key] = (value, lineno)
    return pairs


def _numbers(pairs, key, default=None):
    """The finite numbers of ``key``, or ``default`` if it is absent."""
    if key not in pairs:
        return default
    value, lineno = pairs[key]
    try:
        nums = np.array([float(tok) for tok in value.split()])
    except ValueError:
        raise ConfigParseError("not a number list", key=key, line=lineno)
    count = _KEYS[key][0]
    if nums.size != count:
        raise ConfigParseError(f"expected {count} numbers, got {nums.size}",
                               key=key, line=lineno)
    if not np.isfinite(nums).all():
        raise ConfigParseError("values must be finite", key=key, line=lineno)
    return nums.reshape(3, 3) if count == 9 else (nums if count > 1 else float(nums[0]))


def _word(pairs, key, allowed, default=None):
    """The word of ``key``, one of ``allowed``, or ``default`` if absent."""
    if key not in pairs:
        return default
    value, lineno = pairs[key]
    if value not in allowed:
        raise ConfigParseError(f"must be one of {sorted(allowed)}",
                               key=key, line=lineno)
    return value


def _keys_of(section):
    """Field name -> key, for every key of ``section``."""
    return {key.split(".", 1)[1]: key for key in _KEYS
            if key.startswith(section + ".")}


def _located(pairs, keys, default, make, *args):
    """``make(*args)``, a record's failure reported on its key.

    A ValueError or KappaOutOfRangeError becomes a ConfigParseError on
    ``keys[first word of the message]``, or on ``default`` (maybe None)
    when ``keys`` has no such field, with that key's line if any.
    """
    try:
        return make(*args)
    except (ValueError, KappaOutOfRangeError) as exc:
        key = keys.get(str(exc).split()[0], default)
        raise ConfigParseError(str(exc), key=key,
                               line=pairs.get(key, (None, None))[1]) from None


def _body(pairs, section):
    # the key each InertiaParams and BodySetup field comes from
    keys = _keys_of(section)
    keys.update(body=keys["I"], rotor=keys["K"])
    params = _located(pairs, keys, keys["I"], InertiaParams,
                      _numbers(pairs, keys["I"]), _numbers(pairs, keys["K"]))
    direct = keys["Omega0"] in pairs
    if direct == (keys["IOmega0"] in pairs):
        raise ConfigParseError("exactly one of Omega0 / IOmega0 required",
                               key=keys["Omega0"])
    if direct:
        omega0 = _numbers(pairs, keys["Omega0"])
    else:
        keys["Omega0"] = keys["IOmega0"]
        omega0 = np.linalg.solve(params.body_inertia,
                                 _numbers(pairs, keys["Omega0"]))
    value, lineno = pairs.get(keys["OmegaR0"], ("derive", None))
    if value == "derive" and section == "plant":
        raise ConfigParseError("plant rotor rate cannot be derived",
                               key=keys["OmegaR0"], line=lineno)
    omega_r0 = None if value == "derive" else _numbers(pairs, keys["OmegaR0"])
    return _located(pairs, keys, keys["R0"], BodySetup, params,
                    _numbers(pairs, keys["R0"]), omega0, omega_r0,
                    _numbers(pairs, keys["Theta0"]))


def parse_config(text):
    """Parse scenario text into a fully resolved ScenarioConfig.

    Raises ConfigParseError naming the offending key and line.
    """
    pairs = _read_pairs(text)
    for key, (_, required, _) in _KEYS.items():
        if required and key not in pairs:
            raise ConfigParseError("missing required key", key=key)

    plant = _body(pairs, "plant")
    reference = _body(pairs, "reference")
    program = ReferenceProgram(
        _word(pairs, "reference.program", PROGRAM_KINDS),
        _numbers(pairs, "reference.amplitude"))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # repeated eigenvalues are legal
        weights = _located(pairs, _keys_of("weights"), "weights.P",
                           NavigationWeights,
                           _numbers(pairs, "weights.P", np.eye(3)))

    i_plant = plant.params.body_inertia
    mu = _numbers(pairs, "gains.mu_hess", mu_hess_formula(i_plant))
    gains = _located(pairs, _keys_of("gains"), None, gain_derive,
                     _numbers(pairs, "gains.kp"), _numbers(pairs, "gains.kd"),
                     _numbers(pairs, "gains.ki"),
                     _numbers(pairs, "gains.kappa", _default_kappa(mu)), mu,
                     _numbers(pairs, "gains.lambda_sup",
                              lambda_sup_formula(i_plant)))

    integrator = _located(
        pairs, _keys_of("integrator"), "integrator.step", IntegratorConfig,
        _numbers(pairs, "integrator.step"),
        _numbers(pairs, "integrator.duration"),
        _word(pairs, "integrator.scheme", SCHEMES, "rk4_munthe_kaas"),
        _word(pairs, "integrator.reproject", ("false", "true"),
              "true") == "true")

    cfg = ScenarioConfig(plant=plant, reference=reference, program=program,
                         weights=weights, gains=gains, integrator=integrator)
    # an overflowing momentum shows up as BodySetup's finiteness error
    with np.errstate(over="ignore", invalid="ignore"):
        return _located(pairs, _keys_of("reference"), "reference.OmegaR0",
                        resolve_reference, cfg)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_config(fh.read())
        except UnicodeDecodeError as exc:
            raise ConfigParseError(f"not UTF-8 text: {exc}") from None


def serialize_config(cfg):
    """Canonical text for a (resolved) ScenarioConfig: every `_KEYS` entry
    with an attribute, in order, as held; K is the three rotor inertias."""
    cfg = resolve_reference(cfg)
    lines = []
    for key, (count, _, attribute) in _KEYS.items():
        if attribute is None:
            continue
        value = attrgetter(attribute)(cfg)
        if count is None:   # a word, or the reproject flag's bool
            text = str(value).lower()
        else:
            text = " ".join(map(repr, np.ravel(value).astype(float).tolist()))
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"
