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

import copy
import importlib.resources
import json
import math
import os
import warnings

from .controllers import (
    BoundaryLayerSMC,
    ClassicalSMC,
    DeltaAdaptiveParams,
    DeltaAdaptiveSMC,
    PlestanAdaptiveSMC,
    PlestanParams,
    UtkinAdaptiveSMC,
    UtkinParams,
)
from .core import ultimate_band
from .errors import ConfigError, ParameterError, TuningWarning
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

BOUND_CHECK_SAMPLES = 100_000

_SIGNAL_KINDS = ("smooth_multi_sine", "square_sequence", "custom_table")
_PLANT_KINDS = ("regulation", "linear", "tracking")
_CONTROLLER_KINDS = ("classical", "boundary_layer", "utkin", "plestan", "delta_adaptive")


def _fail(key, message):
    raise ConfigError(f"{key}: {message}")


def _get(d, key, path, types=None, required=True, default=None):
    if key not in d:
        if required:
            _fail(f"{path}.{key}" if path else key, "missing required field")
        return copy.deepcopy(default)
    v = d[key]
    if types is not None and not isinstance(v, types):
        _fail(f"{path}.{key}" if path else key,
              f"expected {types}, got {type(v).__name__}")
    return v


def _num(d, key, path, required=True, default=None):
    v = _get(d, key, path, types=(int, float), required=required, default=default)
    if v is not None and isinstance(v, bool):
        _fail(f"{path}.{key}", "expected a number, got a boolean")
    if v is not None and not math.isfinite(v):
        _fail(f"{path}.{key}", f"must be finite, got {v!r}")
    return float(v) if v is not None else None


def _num_list(d, key, path, required=True):
    v = _get(d, key, path, types=list, required=required)
    if v is None:
        return None
    out = []
    for i, item in enumerate(v):
        if not isinstance(item, (int, float)) or isinstance(item, bool) or not math.isfinite(item):
            _fail(f"{path}.{key}[{i}]", f"must be a finite number, got {item!r}")
        out.append(float(item))
    return out


def _known_keys(d, allowed, path):
    for k in d:
        if k not in allowed:
            _fail(f"{path}.{k}" if path else k, f"unknown field (allowed: {sorted(allowed)})")


# ---------------------------------------------------------------------------
# Normalization (validate + fill defaults)


def _normalize_signal(raw, path):
    if not isinstance(raw, dict):
        _fail(path, "signal spec must be an object")
    kind = _get(raw, "kind", path, types=str)
    if kind == "smooth_multi_sine":
        _known_keys(raw, {"kind", "amplitudes", "frequencies", "phases", "bound", "note"}, path)
        out = {
            "kind": kind,
            "amplitudes": _num_list(raw, "amplitudes", path),
            "frequencies": _num_list(raw, "frequencies", path),
            "phases": _num_list(raw, "phases", path),
            "bound": _num(raw, "bound", path),
        }
    elif kind == "square_sequence":
        _known_keys(raw, {"kind", "half_period", "amplitudes", "bound", "note"}, path)
        sched = _get(raw, "amplitudes", path, types=list)
        norm_sched = []
        for i, pair in enumerate(sched):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)):
                _fail(f"{path}.amplitudes[{i}]", "expected [start_time, amplitude]")
            norm_sched.append([float(pair[0]), float(pair[1])])
        out = {
            "kind": kind,
            "half_period": _num(raw, "half_period", path),
            "amplitudes": norm_sched,
            "bound": _num(raw, "bound", path),
        }
    elif kind == "custom_table":
        _known_keys(raw, {"kind", "path", "bound", "note"}, path)
        out = {
            "kind": kind,
            "path": _get(raw, "path", path, types=str),
            "bound": _num(raw, "bound", path),
        }
    else:
        _fail(f"{path}.kind", f"unknown signal kind {kind!r} (allowed: {_SIGNAL_KINDS})")
    if "note" in raw:
        out["note"] = _get(raw, "note", path, types=str)
    return out


def _build_signal(spec, base_dir):
    kind = spec["kind"]
    try:
        if kind == "smooth_multi_sine":
            return MultiSineSignal(spec["amplitudes"], spec["frequencies"],
                                   spec["phases"], spec["bound"])
        if kind == "square_sequence":
            return SquareSignal(spec["half_period"],
                                [tuple(p) for p in spec["amplitudes"]], spec["bound"])
        path = spec["path"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return TableSignal.from_csv(path, spec["bound"])
    except ParameterError as exc:
        raise ConfigError(f"uncertainty: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"uncertainty.path: cannot read table {path!r} ({exc})") from exc


def normalize_config(raw, path_hint="scenario"):
    """Validate a raw scenario dict and return the canonical form."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path_hint}: top level must be an object")
    _known_keys(raw, {"name", "note", "plant", "uncertainty", "controller",
                      "x0", "integration"}, "")
    out = {"name": _get(raw, "name", "", types=str)}
    if "note" in raw:
        out["note"] = _get(raw, "note", "", types=str)

    plant_raw = _get(raw, "plant", "", types=dict)
    pkind = _get(plant_raw, "kind", "plant", types=str)
    if pkind == "regulation":
        _known_keys(plant_raw, {"kind"}, "plant")
        plant = {"kind": pkind}
    elif pkind == "linear":
        _known_keys(plant_raw, {"kind", "a", "b"}, "plant")
        plant = {"kind": pkind, "a": _num(plant_raw, "a", "plant"),
                 "b": _num(plant_raw, "b", "plant")}
    elif pkind == "tracking":
        _known_keys(plant_raw, {"kind", "lambda", "reference"}, "plant")
        ref = _get(plant_raw, "reference", "plant", types=dict)
        _known_keys(ref, {"amplitude", "omega"}, "plant.reference")
        plant = {
            "kind": pkind,
            "lambda": _num(plant_raw, "lambda", "plant"),
            "reference": {"amplitude": _num(ref, "amplitude", "plant.reference"),
                          "omega": _num(ref, "omega", "plant.reference")},
        }
    else:
        _fail("plant.kind", f"unknown plant kind {pkind!r} (allowed: {_PLANT_KINDS})")

    unc_raw = _get(raw, "uncertainty", "", types=dict)
    if pkind == "tracking":
        _known_keys(unc_raw, {"kind", "multiplicative", "additive", "note"}, "uncertainty")
        ukind = _get(unc_raw, "kind", "uncertainty", types=str)
        if ukind != "multiplicative_plus_additive":
            _fail("uncertainty.kind",
                  "tracking plant requires kind 'multiplicative_plus_additive'")
        unc = {
            "kind": ukind,
            "multiplicative": _normalize_signal(
                _get(unc_raw, "multiplicative", "uncertainty", types=dict),
                "uncertainty.multiplicative"),
            "additive": _normalize_signal(
                _get(unc_raw, "additive", "uncertainty", types=dict),
                "uncertainty.additive"),
        }
        if "note" in unc_raw:
            unc["note"] = _get(unc_raw, "note", "uncertainty", types=str)
    else:
        unc = _normalize_signal(unc_raw, "uncertainty")

    ctl_raw = _get(raw, "controller", "", types=dict)
    ckind = _get(ctl_raw, "kind", "controller", types=str)
    integ_raw = _get(raw, "integration", "", types=dict, required=False, default={})
    _known_keys(integ_raw, {"dt", "substeps", "t_end"}, "integration")
    dt = _num(integ_raw, "dt", "integration", required=False, default=1e-4)
    substeps = _get(integ_raw, "substeps", "integration", types=int,
                    required=False, default=1)
    t_end = _num(integ_raw, "t_end", "integration", required=False, default=30.0)
    integ = {"dt": dt, "substeps": substeps, "t_end": t_end}

    if ckind == "classical":
        _known_keys(ctl_raw, {"kind", "K"}, "controller")
        ctl = {"kind": ckind, "K": _num(ctl_raw, "K", "controller")}
    elif ckind == "boundary_layer":
        _known_keys(ctl_raw, {"kind", "K", "phi"}, "controller")
        ctl = {"kind": ckind, "K": _num(ctl_raw, "K", "controller"),
               "phi": _num(ctl_raw, "phi", "controller")}
    elif ckind == "utkin":
        _known_keys(ctl_raw, {"kind", "tau", "alpha", "nu", "M", "K_plus",
                              "epsilon", "K0"}, "controller")
        mu = unc.get("bound") if pkind != "tracking" else None
        k_plus = _num(ctl_raw, "K_plus", "controller", required=False)
        if k_plus is None:
            if mu is None:
                _fail("controller.K_plus",
                      "required when the plant has no declared uncertainty bound")
            k_plus = 10.0 * mu
        nu = _num(ctl_raw, "nu", "controller", required=False, default=1.0)
        ctl = {
            "kind": ckind,
            "tau": _num(ctl_raw, "tau", "controller", required=False, default=10.0 * dt),
            "alpha": _num(ctl_raw, "alpha", "controller", required=False, default=0.95),
            "nu": nu,
            "K_plus": k_plus,
            "M": _num(ctl_raw, "M", "controller", required=False, default=2.0 * nu * k_plus),
            "epsilon": _num(ctl_raw, "epsilon", "controller", required=False, default=0.01),
            "K0": _num(ctl_raw, "K0", "controller", required=False, default=1.0),
        }
    elif ckind == "plestan":
        _known_keys(ctl_raw, {"kind", "K_bar", "epsilon", "kappa", "K0"}, "controller")
        ctl = {"kind": ckind,
               "K_bar": _num(ctl_raw, "K_bar", "controller"),
               "epsilon": _num(ctl_raw, "epsilon", "controller"),
               "kappa": _num(ctl_raw, "kappa", "controller"),
               "K0": _num(ctl_raw, "K0", "controller")}
    elif ckind == "delta_adaptive":
        _known_keys(ctl_raw, {"kind", "phi", "rho", "k", "mu_hat0"}, "controller")
        ctl = {"kind": ckind,
               "phi": _num(ctl_raw, "phi", "controller"),
               "rho": _num(ctl_raw, "rho", "controller"),
               "k": _num(ctl_raw, "k", "controller"),
               "mu_hat0": _num(ctl_raw, "mu_hat0", "controller")}
    else:
        _fail("controller.kind",
              f"unknown controller kind {ckind!r} (allowed: {_CONTROLLER_KINDS})")

    out["plant"] = plant
    out["uncertainty"] = unc
    out["controller"] = ctl
    out["x0"] = _num_list(raw, "x0", "")
    out["integration"] = integ
    return out


def _build_controller(ctl, path="controller"):
    try:
        kind = ctl["kind"]
        if kind == "classical":
            return ClassicalSMC(ctl["K"])
        if kind == "boundary_layer":
            return BoundaryLayerSMC(ctl["K"], ctl["phi"])
        if kind == "utkin":
            return UtkinAdaptiveSMC(UtkinParams(
                tau=ctl["tau"], alpha=ctl["alpha"], nu=ctl["nu"], M=ctl["M"],
                K_plus=ctl["K_plus"], epsilon=ctl["epsilon"], K0=ctl["K0"]))
        if kind == "plestan":
            return PlestanAdaptiveSMC(PlestanParams(
                K_bar=ctl["K_bar"], epsilon=ctl["epsilon"],
                kappa=ctl["kappa"], K0=ctl["K0"]))
        return DeltaAdaptiveSMC(DeltaAdaptiveParams(
            phi=ctl["phi"], rho=ctl["rho"], k=ctl["k"], mu_hat0=ctl["mu_hat0"]))
    except ParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _warn_off_grid(sig, dt):
    """Warn for each square-wave edge time that is not a multiple of dt:
    the wave then switches between samples, inside an RK4 step."""
    edges = [("half_period", sig.half_period)]
    edges += [("amplitude schedule time", t0) for t0, _ in sig.schedule]
    for label, value in edges:
        q = value / dt
        if abs(q - round(q)) > 1e-9 * abs(q):
            warnings.warn(
                f"square_sequence {label} {value!r} is not a multiple of dt = {dt!r}; "
                f"edges fall between samples",
                TuningWarning,
                stacklevel=3,
            )


def build_scenario(config, base_dir=".") -> Scenario:
    """Turn a raw or normalized scenario dict into a runnable Scenario.

    Performs the load-time checks: signal bounds by dense sampling over the
    horizon, square-wave edges on the dt grid, and the sample-rate rule of
    thumb for the adaptive band (warn when fewer than about four samples fit
    a worst-case band crossing).
    """
    cfg = normalize_config(config)
    integ = cfg["integration"]
    try:
        settings = IntegrationSettings(dt=integ["dt"], substeps=integ["substeps"],
                                       t_end=integ["t_end"])
    except ParameterError as exc:
        raise ConfigError(f"integration: {exc}") from exc

    pkind = cfg["plant"]["kind"]
    try:
        if pkind == "tracking":
            mult = _build_signal(cfg["uncertainty"]["multiplicative"], base_dir)
            add = _build_signal(cfg["uncertainty"]["additive"], base_dir)
            ref = SineReference(cfg["plant"]["reference"]["amplitude"],
                                cfg["plant"]["reference"]["omega"])
            plant = TrackingPlant(mult, add, ref, cfg["plant"]["lambda"])
            signals = [mult, add]
        else:
            sig = _build_signal(cfg["uncertainty"], base_dir)
            if pkind == "regulation":
                plant = RegulationPlant(sig)
            else:
                plant = LinearPlant(cfg["plant"]["a"], cfg["plant"]["b"], sig)
            signals = [sig]
    except ParameterError as exc:
        raise ConfigError(f"plant: {exc}") from exc

    for sig in signals:
        try:
            verify_signal_bound(sig, settings.t_end, BOUND_CHECK_SAMPLES)
        except ParameterError as exc:
            raise ConfigError(f"uncertainty: {exc}") from exc
        if sig.kind == "square_sequence":
            _warn_off_grid(sig, settings.dt)

    controller = _build_controller(cfg["controller"])

    if cfg["controller"]["kind"] == "delta_adaptive" and plant.true_bound is not None:
        phi = cfg["controller"]["phi"]
        k = cfg["controller"]["k"]
        eta = ultimate_band(phi)
        crossing_speed = 2.0 * plant.true_bound + k * eta
        per_crossing = 2.0 * eta / (crossing_speed * settings.dt)
        if per_crossing < 4.0:
            warnings.warn(
                f"only {per_crossing:.2f} samples fit a worst-case band crossing "
                f"(rule of thumb wants >= 4); consider a smaller dt or larger phi",
                TuningWarning,
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return raw


def load_scenario(path, overrides=None) -> Scenario:
    """Load, validate and build a scenario file; overrides patch integration
    settings (keys dt / t_end) before the build."""
    raw = load_config(path)
    if overrides:
        integ = dict(raw.get("integration", {}) or {})
        integ.update(overrides)
        raw = dict(raw)
        raw["integration"] = integ
    return build_scenario(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def serialize_config(cfg) -> str:
    """Canonical JSON text of a normalized configuration."""
    return json.dumps(normalize_config(cfg), indent=2, sort_keys=True) + "\n"


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
