"""Workload inputs: what each pass runs and the parameters its checks need.

Every input is made here, from the packaged preset files (read as plain JSON)
and the seed. The program only ever sees the generated scenario files or
preset names.
"""

import json
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("compare-smooth", "verify-square", "sweep-short")

COMPARE_PRESETS = (
    "compare-smooth-adaptive",
    "compare-smooth-plestan-fast",
    "compare-smooth-plestan-slow",
)
VERIFY_PRESET = "regulation-square"

# Sweep: points per base scenario, horizon, and the ranges each parameter is
# drawn from. |x0| on the regulation base reaches past sigma/k for most draws,
# so the ultimate-bound certificate applies on those points; it applies on
# neither packaged regulation preset.
SWEEP_POINTS_PER_BASE = 4
SWEEP_T_END = 2.0
SWEEP_RANGES = {
    "regulation-smooth": {"phi": (0.005, 0.02), "rho": (0.5, 2.0),
                          "k": (1.5, 4.0), "x0": (0.2, 4.0)},
    "tracking": {"phi": (0.15, 0.45), "rho": (0.5, 1.0),
                 "k": (2.0, 6.0), "x0": (-0.5, 0.5)},
}

# Short horizon used by the self-test's smoke mode on every workload.
SMOKE_T_END = 2.0
SMOKE_SWEEP_POINTS_PER_BASE = 2


def preset(root, name):
    with open(os.path.join(root, "src", "smcsim", "presets", name + ".json")) as fh:
        return json.load(fh)


def rows(config):
    """Rows of the trajectory log: one per sample instant i*dt <= t_end."""
    integ = config["integration"]
    return int(round(integ["t_end"] / integ["dt"])) + 1


@dataclass
class Inputs:
    """One workload's inputs.

    kind        "cli" (args are a smcsim command line) or "sweep" (args name
                the points file the library-level loop reads)
    scenarios   name -> scenario dict, in the order the pass runs them
    ops         operations a pass attempts: one per sweep point, else one
    """

    name: str
    kind: str
    args: list
    scenarios: dict
    ops: int
    rows_per_pass: int

    def argv(self, pass_dir):
        if self.name == "compare-smooth":
            return self.args + ["--out", pass_dir]
        return list(self.args)


def _write_json(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
    return path


def _shortened(config, t_end):
    cfg = json.loads(json.dumps(config))
    cfg["integration"]["t_end"] = t_end
    return cfg


def compare_inputs(root, out_dir, smoke):
    scenarios = {name: preset(root, name) for name in COMPARE_PRESETS}
    if smoke:
        scenarios = {name: _shortened(cfg, SMOKE_T_END) for name, cfg in scenarios.items()}
        args = ["compare"] + [_write_json(os.path.join(out_dir, "inputs", name + ".json"), cfg)
                              for name, cfg in scenarios.items()]
    else:
        args = ["compare"] + list(COMPARE_PRESETS)
    return Inputs("compare-smooth", "cli", args, scenarios, 1,
                  sum(rows(c) for c in scenarios.values()))


def verify_inputs(root, out_dir, smoke):
    cfg = preset(root, VERIFY_PRESET)
    args = ["verify", VERIFY_PRESET]
    if smoke:
        cfg = _shortened(cfg, SMOKE_T_END)
        args += ["--t-end", repr(SMOKE_T_END)]
    return Inputs("verify-square", "cli", args, {VERIFY_PRESET: cfg}, 1, rows(cfg))


def sweep_points(root, seed, per_base, t_end):
    """Scenario dicts drawn from the seed: per_base points on each base."""
    rng = random.Random(seed)
    points = {}
    for base, ranges in SWEEP_RANGES.items():
        cfg0 = preset(root, base)
        for j in range(per_base):
            cfg = _shortened(cfg0, t_end)
            ctl = cfg["controller"]
            for key in ("phi", "rho", "k"):
                ctl[key] = round(rng.uniform(*ranges[key]), 4)
            if base == "tracking":
                cfg["x0"] = [round(rng.uniform(*ranges["x0"]), 4) for _ in cfg["x0"]]
            else:
                cfg["x0"] = [math.copysign(round(rng.uniform(*ranges["x0"]), 4),
                                           rng.choice((-1.0, 1.0)))]
            cfg["name"] = f"{base}-{j}"
            points[cfg["name"]] = cfg
    return points


def sweep_inputs(root, out_dir, seed, smoke):
    per_base = SMOKE_SWEEP_POINTS_PER_BASE if smoke else SWEEP_POINTS_PER_BASE
    t_end = SMOKE_T_END if smoke else SWEEP_T_END
    points = sweep_points(root, seed, per_base, t_end)
    path = _write_json(os.path.join(out_dir, "inputs", "points.json"), list(points.values()))
    return Inputs("sweep-short", "sweep", [path], points, len(points),
                  sum(rows(c) for c in points.values()))


def make_inputs(workload, root, out_dir, seed, smoke=False):
    if workload == "compare-smooth":
        return compare_inputs(root, out_dir, smoke)
    if workload == "verify-square":
        return verify_inputs(root, out_dir, smoke)
    if workload == "sweep-short":
        return sweep_inputs(root, out_dir, seed, smoke)
    raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
