"""Scenario files: JSON schema, validation, defaults and packaged presets.

A scenario file names a plant, an uncertainty signal, a controller and the
integration settings. ``normalize_config`` validates the raw dict and fills
every default so the result round-trips (normalizing twice is a fixed point);
``build_scenario`` turns a normalized dict into live objects. Validation
failures raise ConfigError with the offending key in the message.

Presets reproducing the published parameter sets ship as JSON files inside
the package; waveforms there are desk-scale reconstructions (the originals
exist only as figures) and carry "note" keys saying so.
"""

import functools
import importlib.resources
import json
import math
import os
import warnings

from .controllers import (
    BoundaryLayerSMC,
    ClassicalSMC,
    DeltaAdaptiveSMC,
    PlestanAdaptiveSMC,
    UtkinAdaptiveSMC,
)
from .core import ultimate_band
from .errors import ConfigError, ParameterError, SmcError, TuningWarning
from .plants import (
    LinearPlant,
    MultiSineSignal,
    RegulationPlant,
    SineReference,
    SquareSignal,
    TableSignal,
    TrackingPlant,
    verify_signal_bound,
)
from .sim import IntegrationSettings, Scenario

_NUMBER = (int, float)


def _fail(key, message):
    raise ConfigError(f"{key}: {message}")


def _key(path, key):
    return f"{path}.{key}" if path else key


def _get(d, key, path, types=None, required=True, default=None):
    if key not in d:
        if required:
            _fail(_key(path, key), "missing required field")
        return default
    v = d[key]
    if types is not None and not isinstance(v, types):
        _fail(_key(path, key), f"expected {types}, got {type(v).__name__}")
    if isinstance(v, bool) and types in (int, _NUMBER):
        _fail(_key(path, key), "expected a number, got a boolean")
    return v


def _finite(v, where, message):
    """v as a float; ConfigError(message) unless it is a finite int or float."""
    if isinstance(v, _NUMBER) and not isinstance(v, bool):
        try:
            f = float(v)
        except OverflowError:  # an int beyond the float range
            f = math.inf
        if math.isfinite(f):
            return f
    _fail(where, message.format(v))


# Field parsers: (d, key, path) -> the normalized value of d[key].


def _num(d, key, path, required=True, default=None):
    v = _get(d, key, path, _NUMBER, required, default)
    return None if v is None else _finite(v, _key(path, key), "must be finite, got {!r}")


def _opt(default=None):
    """Parser of an optional number; None marks a default derived later."""
    return functools.partial(_num, required=False, default=default)


def _num_list(d, key, path):
    return [_finite(v, f"{_key(path, key)}[{i}]", "must be a finite number, got {!r}")
            for i, v in enumerate(_get(d, key, path, types=list))]


def _schedule(d, key, path):
    """A square wave's amplitude schedule, a list of [start_time, amplitude]."""
    out = []
    for i, pair in enumerate(_get(d, key, path, types=list)):
        where = f"{_key(path, key)}[{i}]"
        if not (isinstance(pair, list) and len(pair) == 2):
            _fail(where, "expected [start_time, amplitude]")
        out.append([_finite(v, where, "must be a finite number, got {!r}") for v in pair])
    return out


_str = functools.partial(_get, types=str)

# The longest file name a command writes is "<name>.metrics.json", and file
# systems commonly allow 255 bytes in one.
NAME_MAX_BYTES = 255 - len(".metrics.json")


def _name(d, key, path):
    """The scenario name, which run and compare use as the stem of the files
    they write in --out: nonempty, not starting with ".", with no "/", "\\"
    or NUL, and at most NAME_MAX_BYTES bytes in the file system's encoding."""
    v = _str(d, key, path)
    if not v or v.startswith(".") or any(c in v for c in "/\\\0"):
        _fail(key, "must be a file name stem: nonempty, not starting with '.', and without "
                   f"'/', '\\' or NUL, got {v!r}")
    try:
        size = len(os.fsencode(v))
    except UnicodeError:
        _fail(key, f"cannot be encoded as a file name, got {v!r}")
    if size > NAME_MAX_BYTES:
        _fail(key, f"must take at most {NAME_MAX_BYTES} bytes as a file name, got {size}")
    return v


def _known_keys(d, allowed, path):
    for k in d:
        if k not in allowed:
            _fail(_key(path, k), f"unknown field (allowed: {sorted(allowed)})")


def _fields(d, fields, path, extra=()):
    """Reject keys of d beyond fields and extra, then parse each field."""
    _known_keys(d, {*fields, *extra}, path)
    return {name: parse(d, name, path) for name, parse in fields.items()}


def _object(fields):
    """Parser of a nested object with the given fields."""
    return lambda d, key, path: _fields(_get(d, key, path, types=dict), fields, _key(path, key))


def _noted(d, path, out):
    """out plus the optional free-text "note" of d."""
    if "note" in d:
        out["note"] = _str(d, "note", path)
    return out


def _kind(table, family, d, key, path="", extra=()):
    """Parser of an object {"kind": k, field: value, ...}, k a key of table."""
    d, path = _get(d, key, path, types=dict), _key(path, key)
    kind = _str(d, "kind", path)
    if kind not in table:
        _fail(f"{path}.kind", f"unknown {family} kind {kind!r} (allowed: {tuple(table)})")
    return {"kind": kind, **_fields(d, table[kind][0], path, ("kind", *extra))}


def _args(spec):
    return {k: v for k, v in spec.items() if k not in ("kind", "note")}


# ---------------------------------------------------------------------------
# Schema: one table per family, kind -> (field -> parser, builder). A builder
# takes the normalized fields as keywords and names its classes in its body,
# so they are looked up in this module when it is called (a tracer may have
# replaced them by then). Adding a kind means adding one entry.

_SIGNALS = {
    "smooth_multi_sine": (
        {"amplitudes": _num_list, "frequencies": _num_list, "phases": _num_list, "bound": _num},
        lambda base, **c: MultiSineSignal(**c)),
    "square_sequence": (
        {"half_period": _num, "amplitudes": _schedule, "bound": _num},
        lambda base, half_period, amplitudes, bound:
            SquareSignal(half_period, [tuple(p) for p in amplitudes], bound)),
    "custom_table": (
        {"path": _str, "bound": _num},
        lambda base, path, bound: TableSignal.from_csv(os.path.join(base, path), bound)),
}

# A plant builder also takes the built uncertainty signals, in the order the
# plant's uncertainty names them.
_PLANTS = {
    "regulation": ({}, lambda w: RegulationPlant(*w)),
    "linear": ({"a": _num, "b": _num}, lambda w, a, b: LinearPlant(a, b, *w)),
    "tracking": (
        {"lambda": _num, "reference": _object({"amplitude": _num, "omega": _num})},
        lambda w, reference, **p: TrackingPlant(*w, SineReference(**reference), p["lambda"])),
}

_CONTROLLERS = {
    "classical": ({"K": _num}, lambda **c: ClassicalSMC(**c)),
    "boundary_layer": ({"K": _num, "phi": _num}, lambda **c: BoundaryLayerSMC(**c)),
    "utkin": (
        {"tau": _opt(), "alpha": _opt(0.95), "nu": _opt(1.0), "K_plus": _opt(), "M": _opt(),
         "epsilon": _opt(0.01), "K0": _opt(1.0)},
        lambda **c: UtkinAdaptiveSMC(**c)),
    "plestan": (
        {"K_bar": _num, "epsilon": _num, "kappa": _num, "K0": _num},
        lambda **c: PlestanAdaptiveSMC(**c)),
    "delta_adaptive": (
        {"phi": _num, "rho": _num, "k": _num, "mu_hat0": _num},
        lambda **c: DeltaAdaptiveSMC(**c)),
}


def _substeps(d, key, path):
    """The one accepted value, kept as a field so that files that state it
    still load: the plant takes one RK4 step per sample."""
    v = _get(d, key, path, types=int, required=False, default=1)
    if v != 1:
        _fail(_key(path, key), f"must be 1 (one RK4 step per sample; refine dt instead), "
                               f"got {v!r}")
    return v


_INTEGRATION = {"dt": _opt(1e-4), "substeps": _substeps, "t_end": _opt(30.0)}


def _signal(d, key, path):
    spec = _kind(_SIGNALS, "signal", d, key, path, ("note",))
    return _noted(d[key], _key(path, key), spec)


def _tracking_uncertainty(raw):
    """The tracking plant's uncertainty: a multiplicative and an additive signal."""
    d = _get(raw, "uncertainty", "", types=dict)
    _known_keys(d, {"kind", "multiplicative", "additive", "note"}, "uncertainty")
    kind = _str(d, "kind", "uncertainty")
    if kind != "multiplicative_plus_additive":
        _fail("uncertainty.kind", "tracking plant requires kind 'multiplicative_plus_additive'")
    signals = {name: _signal(d, name, "uncertainty") for name in ("multiplicative", "additive")}
    return _noted(d, "uncertainty", {"kind": kind, **signals})


def _utkin_defaults(ctl, mu, dt):
    """Fill utkin's defaults derived from other values: K_plus = 10*mu (the
    declared uncertainty bound), tau = 10*dt and M = 2*nu*K_plus."""
    if ctl["K_plus"] is None:
        if mu is None:
            _fail("controller.K_plus", "required when the plant has no declared uncertainty bound")
        ctl["K_plus"] = 10.0 * mu
    if ctl["tau"] is None:
        ctl["tau"] = 10.0 * dt
    if ctl["M"] is None:
        ctl["M"] = 2.0 * ctl["nu"] * ctl["K_plus"]


def normalize_config(raw):
    """Validate a raw scenario dict and return the canonical form."""
    if not isinstance(raw, dict):
        raise ConfigError("scenario: top level must be an object")
    _known_keys(raw, {"name", "note", "plant", "uncertainty", "controller",
                      "x0", "integration"}, "")
    out = _noted(raw, "", {"name": _name(raw, "name", "")})
    out["plant"] = _kind(_PLANTS, "plant", raw, "plant")
    if out["plant"]["kind"] == "tracking":
        out["uncertainty"] = _tracking_uncertainty(raw)
    else:
        out["uncertainty"] = _signal(raw, "uncertainty", "")
    integ = _fields(_get(raw, "integration", "", dict, required=False, default={}),
                    _INTEGRATION, "integration")
    out["controller"] = _kind(_CONTROLLERS, "controller", raw, "controller")
    if out["controller"]["kind"] == "utkin":
        _utkin_defaults(out["controller"], out["uncertainty"].get("bound"), integ["dt"])
    out["x0"] = _num_list(raw, "x0", "")
    out["integration"] = integ
    return out


def _build_signal(spec, base_dir):
    try:
        return _SIGNALS[spec["kind"]][1](base_dir, **_args(spec))
    except ParameterError as exc:
        raise ConfigError(f"uncertainty: {exc}") from exc
    except (OSError, ValueError) as exc:  # unreadable, undecodable or NUL in the name
        path = os.path.join(base_dir, spec["path"])
        raise ConfigError(f"uncertainty.path: cannot read table {path!r} ({exc})") from exc


def _warn_off_grid(sig, dt):
    """Warn for each square-wave edge time that is not a multiple of dt:
    the wave then switches between samples, inside an RK4 step."""
    edges = [("half_period", sig.half_period)]
    edges += [("amplitude schedule time", t0) for t0, _ in sig.schedule]
    for label, value in edges:
        q = value / dt
        if not math.isfinite(q) or abs(q - round(q)) > 1e-9 * abs(q):
            warnings.warn(
                TuningWarning(f"square_sequence {label} {value!r} is not a multiple of "
                              f"dt = {dt!r}; edges fall between samples", "uncertainty"),
                stacklevel=3,
            )


def build_scenario(config, base_dir=".") -> Scenario:
    """Turn a raw or normalized scenario dict into a runnable Scenario.

    Performs the load-time checks: each signal is evaluated at t = 0 and
    t_end (so a table that does not cover the horizon is refused here; the
    runner checks the bound at every instant it uses), square-wave edges on
    the dt grid, and the sample-rate rule of thumb for the adaptive band
    (warn when fewer than about four samples fit a worst-case band crossing).
    """
    cfg = normalize_config(config)
    try:
        settings = IntegrationSettings(cfg["integration"]["dt"], cfg["integration"]["t_end"])
    except ParameterError as exc:
        raise ConfigError(f"integration: {exc}") from exc

    unc, pkind = cfg["uncertainty"], cfg["plant"]["kind"]
    specs = [unc["multiplicative"], unc["additive"]] if pkind == "tracking" else [unc]
    try:
        signals = [_build_signal(spec, base_dir) for spec in specs]
        plant = _PLANTS[pkind][1](signals, **_args(cfg["plant"]))
    except ParameterError as exc:
        raise ConfigError(f"plant: {exc}") from exc

    for sig in signals:
        try:
            verify_signal_bound(sig, (0.0, settings.t_end))
        except SmcError as exc:  # a bound exceeded, or a table too short
            raise ConfigError(f"uncertainty: {exc}") from exc
        if sig.kind == "square_sequence":
            _warn_off_grid(sig, settings.dt)

    try:
        controller = _CONTROLLERS[cfg["controller"]["kind"]][1](**_args(cfg["controller"]))
    except ParameterError as exc:
        raise ConfigError(f"controller: {exc}") from exc

    if cfg["controller"]["kind"] == "delta_adaptive" and plant.true_bound is not None:
        phi = cfg["controller"]["phi"]
        k = cfg["controller"]["k"]
        eta = ultimate_band(phi)
        crossing_speed = 2.0 * plant.true_bound + k * eta
        per_crossing = 2.0 * eta / (crossing_speed * settings.dt)
        if per_crossing < 4.0:
            warnings.warn(
                TuningWarning(f"only {per_crossing:.2f} samples fit a worst-case band crossing "
                              f"(rule of thumb wants >= 4); consider a smaller dt or larger phi",
                              "integration"),
                stacklevel=2,
            )

    try:
        return Scenario(name=cfg["name"], plant=plant, controller=controller,
                        x0=tuple(cfg["x0"]), settings=settings, config=cfg)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path!r}: {exc}") from exc
    # malformed JSON, undecodable bytes, an over-long integer, too deep a nesting
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return raw


def load_scenario(path, overrides=None) -> Scenario:
    """Load, validate and build a scenario file; overrides patch integration
    settings (keys dt / t_end) before the build. They patch an "integration"
    object, or an absent one, only: any other file is refused as it is
    without them."""
    raw = load_config(path)
    if overrides and isinstance(raw, dict):
        integ = raw.get("integration", {})
        if isinstance(integ, dict):
            raw = {**raw, "integration": {**integ, **overrides}}
    return build_scenario(raw, base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# Packaged presets


def _preset_dir():
    return importlib.resources.files("smcsim").joinpath("presets")


def list_presets():
    names = []
    for entry in _preset_dir().iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[: -len(".json")])
    return sorted(names)


def preset_path(name):
    entry = _preset_dir().joinpath(name + ".json")
    if not entry.is_file():
        raise ConfigError(f"unknown preset {name!r} (available: {', '.join(list_presets())})")
    return str(entry)


def resolve_scenario(arg):
    """Interpret a CLI argument as a file path or a packaged preset name."""
    if os.path.exists(arg):
        return arg
    if "/" not in arg and "\\" not in arg and not arg.endswith(".json"):
        return preset_path(arg)
    raise ConfigError(f"scenario file not found: {arg!r}")
