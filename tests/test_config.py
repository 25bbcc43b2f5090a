import json
import math
import os
import re

import numpy as np
import pytest

from smcsim.config import (
    build_scenario,
    list_presets,
    load_config,
    load_scenario,
    normalize_config,
    preset_path,
    resolve_scenario,
)
from smcsim.controllers import UtkinAdaptiveSMC
from smcsim.errors import ConfigError, TuningWarning
from smcsim.plants import RegulationPlant, TrackingPlant
from smcsim.sim import run_scenario


def smooth_config(**patch):
    cfg = {
        "name": "test-smooth",
        "plant": {"kind": "regulation"},
        "uncertainty": {
            "kind": "smooth_multi_sine",
            "amplitudes": [1.5, 0.8],
            "frequencies": [0.1, 0.13],
            "phases": [0.0, 1.0],
            "bound": 2.3,
        },
        "controller": {"kind": "delta_adaptive", "phi": 0.01, "rho": 1.0, "k": 2.0,
                       "mu_hat0": 0.001},
        "x0": [1.0],
        "integration": {"dt": 1e-4, "substeps": 1, "t_end": 2.0},
    }
    cfg.update(patch)
    return cfg


EXPECTED_PRESETS = {
    "regulation-smooth",
    "regulation-square",
    "tracking",
    "compare-smooth-adaptive",
    "compare-smooth-plestan-fast",
    "compare-smooth-plestan-slow",
    "regulation-smooth-classical",
    "regulation-smooth-boundary-layer",
    "regulation-smooth-utkin",
}


class TestPresets:
    def test_all_expected_presets_ship(self):
        assert EXPECTED_PRESETS.issubset(set(list_presets()))

    @pytest.mark.parametrize("name", sorted(EXPECTED_PRESETS))
    def test_every_preset_builds(self, name):
        scenario = load_scenario(preset_path(name))
        assert scenario.name == name
        assert scenario.settings.dt > 0

    def test_published_parameter_sets(self):
        smooth = load_scenario(preset_path("regulation-smooth"))
        p = smooth.controller
        assert (p.phi, p.rho, p.k, p.mu_hat0) == (0.01, 1.0, 2.0, 0.001)
        assert smooth.x0 == (1.0,)

        square = load_scenario(preset_path("regulation-square"))
        p = square.controller
        assert (p.phi, p.rho, p.k, p.mu_hat0) == (0.03, 0.7, 9.0, 0.001)
        assert square.x0 == (0.1,)

        tracking = load_scenario(preset_path("tracking"))
        p = tracking.controller
        assert (p.phi, p.rho, p.k, p.mu_hat0) == (0.3, 0.7, 5.0, 0.001)
        assert isinstance(tracking.plant, TrackingPlant)
        assert tracking.plant.lam == 6.0
        assert math.isclose(tracking.plant.reference.omega, 0.4 * math.pi, rel_tol=1e-15)

        fast = load_scenario(preset_path("compare-smooth-plestan-fast"))
        assert fast.controller.K_bar == 3000.0
        assert math.isclose(fast.controller.epsilon,
                            0.01 * (math.sqrt(2) - 1.0), rel_tol=1e-15)
        slow = load_scenario(preset_path("compare-smooth-plestan-slow"))
        assert slow.controller.K_bar == 150.0

    def test_comparison_presets_share_setup(self):
        cfgs = [
            load_scenario(preset_path(f"compare-smooth-{n}")).config
            for n in ("adaptive", "plestan-fast", "plestan-slow")
        ]
        for key in ("plant", "uncertainty", "x0", "integration"):
            assert cfgs[0][key] == cfgs[1][key] == cfgs[2][key]

    def test_resolve(self):
        assert resolve_scenario("regulation-smooth").endswith("regulation-smooth.json")
        with pytest.raises(ConfigError):
            resolve_scenario("no-such-preset")


class TestValidation:
    @pytest.mark.parametrize(
        "patch,needle",
        [
            ({"controller": {"kind": "delta_adaptive", "phi": -0.01, "rho": 1.0,
                             "k": 2.0, "mu_hat0": 0.001}}, "phi"),
            ({"controller": {"kind": "delta_adaptive", "phi": 0.01, "rho": 0.0,
                             "k": 2.0, "mu_hat0": 0.001}}, "rho"),
            ({"controller": {"kind": "delta_adaptive", "phi": 0.01, "rho": 1.0,
                             "k": -1.0, "mu_hat0": 0.001}}, "k"),
            ({"controller": {"kind": "delta_adaptive", "phi": 0.01, "rho": 1.0,
                             "k": 2.0, "mu_hat0": 0.0}}, "mu_hat0"),
            ({"controller": {"kind": "plestan", "K_bar": 0.0, "epsilon": 0.004,
                             "kappa": 0.01, "K0": 0.02}}, "K_bar"),
        ],
    )
    def test_parameter_rejections_carry_the_name(self, patch, needle):
        with pytest.raises(ConfigError, match=needle):
            build_scenario(smooth_config(**patch))

    def test_non_finite_waveform_rejected(self):
        cfg = smooth_config()
        cfg["uncertainty"]["amplitudes"] = [math.inf, 0.8]
        with pytest.raises(ConfigError, match="finite"):
            build_scenario(cfg)

    def test_repeated_square_start_time_rejected(self):
        raw = load_config(preset_path("regulation-square"))
        raw["uncertainty"]["amplitudes"].append(list(raw["uncertainty"]["amplitudes"][-1]))
        with pytest.raises(ConfigError, match="strictly increasing"):
            build_scenario(raw)

    def test_bound_violation_rejected(self):
        cfg = smooth_config()
        cfg["uncertainty"]["bound"] = 1.0
        with pytest.raises(ConfigError, match="bound"):
            build_scenario(cfg)

    def test_unknown_keys_rejected(self):
        cfg = smooth_config()
        cfg["controller"]["extra"] = 1.0
        with pytest.raises(ConfigError, match="unknown field"):
            build_scenario(cfg)

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ConfigError, match="controller.kind"):
            build_scenario(smooth_config(controller={"kind": "pid", "K": 1.0}))
        with pytest.raises(ConfigError, match="plant.kind"):
            build_scenario(smooth_config(plant={"kind": "quadrotor"}))

    def test_missing_name(self):
        cfg = smooth_config()
        del cfg["name"]
        with pytest.raises(ConfigError, match="name"):
            build_scenario(cfg)

    def test_x0_dimension_mismatch(self):
        with pytest.raises(ConfigError, match="x0"):
            build_scenario(smooth_config(x0=[1.0, 0.0]))

    def test_tuning_warning_for_large_k(self):
        cfg = smooth_config()
        cfg["controller"]["k"] = 500.0
        with pytest.warns(TuningWarning):
            build_scenario(cfg)

    def test_sampling_rule_warning(self):
        cfg = smooth_config()
        cfg["integration"]["dt"] = 1e-3  # ~1.8 samples per worst-case crossing
        with pytest.warns(TuningWarning, match="samples"):
            build_scenario(cfg)

    def test_fine_sampling_no_warning(self, recwarn):
        build_scenario(smooth_config())
        assert not [w for w in recwarn if issubclass(w.category, TuningWarning)]



def tracking_config(**patch):
    cfg = load_config(preset_path("tracking"))
    cfg["integration"]["t_end"] = 2.0
    cfg.update(patch)
    return cfg


class TestErrorText:
    """The exact ConfigError text of one malformed config per branch."""

    @pytest.mark.parametrize("cfg,text", [
        (smooth_config(uncertainty={"kind": "triangle"}),
         "uncertainty.kind: unknown signal kind 'triangle' "
         "(allowed: ('smooth_multi_sine', 'square_sequence', 'custom_table'))"),
        (smooth_config(plant={"kind": "quadrotor"}),
         "plant.kind: unknown plant kind 'quadrotor' (allowed: ('regulation', 'linear', 'tracking'))"),
        (smooth_config(controller={"kind": "pid", "K": 1.0}),
         "controller.kind: unknown controller kind 'pid' (allowed: ('classical', "
         "'boundary_layer', 'utkin', 'plestan', 'delta_adaptive'))"),
        (tracking_config(uncertainty={"kind": "smooth_multi_sine"}),
         "uncertainty.kind: tracking plant requires kind 'multiplicative_plus_additive'"),
        (smooth_config(controller={"kind": "classical", "K": 1.0, "gain": 2.0}),
         "controller.gain: unknown field (allowed: ['K', 'kind'])"),
        (smooth_config(uncertainty={"kind": "custom_table", "path": "w.csv", "bound": 1.0,
                                    "scale": 2.0}),
         "uncertainty.scale: unknown field (allowed: ['bound', 'kind', 'note', 'path'])"),
        (smooth_config(extra=1),
         "extra: unknown field (allowed: ['controller', 'integration', 'name', 'note', "
         "'plant', 'uncertainty', 'x0'])"),
        (smooth_config(controller={"kind": "boundary_layer", "K": 1.0}),
         "controller.phi: missing required field"),
        (tracking_config(plant={"kind": "tracking", "lambda": 6.0,
                                "reference": {"amplitude": 3.0}}),
         "plant.reference.omega: missing required field"),
        (smooth_config(controller={"kind": "plestan", "K_bar": "150", "epsilon": 0.004,
                                   "kappa": 0.01, "K0": 0.02}),
         "controller.K_bar: expected (<class 'int'>, <class 'float'>), got str"),
        (smooth_config(plant={"kind": "linear", "a": True, "b": 1.0}),
         "plant.a: expected a number, got a boolean"),
        (smooth_config(uncertainty={"kind": "square_sequence", "half_period": 2.5,
                                    "amplitudes": [[0.0, 1.0], [5.0]], "bound": 2.0}),
         "uncertainty.amplitudes[1]: expected [start_time, amplitude]"),
        (tracking_config(controller={"kind": "utkin"}),
         "controller.K_plus: required when the plant has no declared uncertainty bound"),
    ])
    def test_message(self, cfg, text):
        with pytest.raises(ConfigError) as err:
            build_scenario(cfg)
        assert str(err.value) == text

    def test_unreadable_table_path(self, tmp_path):
        cfg = smooth_config(uncertainty={"kind": "custom_table", "path": "nope.csv",
                                         "bound": 1.0})
        with pytest.raises(ConfigError) as err:
            build_scenario(cfg, base_dir=str(tmp_path))
        path = str(tmp_path / "nope.csv")
        assert str(err.value) == (f"uncertainty.path: cannot read table {path!r} "
                                  f"([Errno 2] No such file or directory: {path!r})")

    def test_boolean_substeps_rejected(self):
        cfg = smooth_config()
        cfg["integration"]["substeps"] = True
        with pytest.raises(ConfigError) as err:
            build_scenario(cfg)
        assert str(err.value) == "integration.substeps: expected a number, got a boolean"

    @pytest.mark.parametrize("substeps", [2, 0])
    def test_substeps_other_than_one_rejected(self, substeps):
        cfg = smooth_config()
        cfg["integration"]["substeps"] = substeps
        with pytest.raises(ConfigError) as err:
            build_scenario(cfg)
        assert str(err.value) == ("integration.substeps: must be 1 (one RK4 step per sample; "
                                  f"refine dt instead), got {substeps}")


def tuning_warnings(recwarn):
    return [str(w.message) for w in recwarn if issubclass(w.category, TuningWarning)]


class TestSquareEdgesOnGrid:
    def test_off_grid_dt_names_half_period_and_dt(self):
        with pytest.warns(TuningWarning, match=r"half_period 2\.5 .*dt = 0\.0003"):
            load_scenario(preset_path("regulation-square"), overrides={"dt": 3e-4})

    def test_off_grid_schedule_time(self, recwarn):
        raw = load_config(preset_path("regulation-square"))
        raw["uncertainty"]["amplitudes"][1][0] = 15.00005
        build_scenario(raw)
        assert [m for m in tuning_warnings(recwarn) if "schedule time 15.00005" in m]
        assert not [m for m in tuning_warnings(recwarn) if "half_period" in m]

    def test_overflowing_schedule_time_warns(self, recwarn):
        # 1e306/dt is inf: an edge that far out is off the grid, not a crash.
        raw = load_config(preset_path("regulation-square"))
        raw["uncertainty"]["amplitudes"].append([1e306, 1.0])
        build_scenario(raw)
        assert [m for m in tuning_warnings(recwarn) if "schedule time 1e+306" in m]

    @pytest.mark.parametrize("name", sorted(EXPECTED_PRESETS))
    def test_no_preset_warns(self, name, recwarn):
        load_scenario(preset_path(name))
        assert tuning_warnings(recwarn) == []


class TestDefaults:
    def test_utkin_defaults_fill(self):
        cfg = smooth_config(controller={"kind": "utkin"})
        norm = normalize_config(cfg)
        ctl = norm["controller"]
        assert ctl["alpha"] == 0.95
        assert math.isclose(ctl["tau"], 10.0 * 1e-4, rel_tol=1e-15)
        assert ctl["nu"] == 1.0
        assert math.isclose(ctl["K_plus"], 23.0, rel_tol=1e-12)
        assert math.isclose(ctl["M"], 46.0, rel_tol=1e-12)
        assert ctl["epsilon"] == 0.01
        assert ctl["K0"] == 1.0
        scenario = build_scenario(cfg)
        assert isinstance(scenario.controller, UtkinAdaptiveSMC)

    def test_integration_defaults(self):
        cfg = smooth_config()
        del cfg["integration"]
        norm = normalize_config(cfg)
        assert norm["integration"] == {"dt": 1e-4, "substeps": 1, "t_end": 30.0}


def test_readme_example_loads_and_runs():
    # The scenario file shown in README.md, "substeps": 1 included.
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        block = re.search(r"^```json\n(.*?)^```", fh.read(), re.M | re.S).group(1)
    cfg = json.loads(block)
    assert cfg["integration"]["substeps"] == 1
    cfg["integration"]["t_end"] = 0.01
    log = run_scenario(build_scenario(cfg))
    assert len(log) == 101 and np.all(np.isfinite(log.x))


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(EXPECTED_PRESETS))
    def test_normalize_is_idempotent(self, name):
        with open(preset_path(name)) as fh:
            raw = json.load(fh)
        once = normalize_config(raw)
        assert normalize_config(once) == once
        # the canonical form survives a JSON round trip
        assert normalize_config(json.loads(json.dumps(once))) == once

    def test_overrides_apply(self):
        sc = load_scenario(preset_path("regulation-smooth"), overrides={"t_end": 1.5})
        assert sc.settings.t_end == 1.5
        assert sc.settings.dt == 1e-4


class TestCustomTable:
    def test_relative_path_resolution(self, tmp_path):
        (tmp_path / "wave.csv").write_text("0.0,0.2\n50.0,0.2\n")
        cfg = smooth_config()
        cfg["uncertainty"] = {"kind": "custom_table", "path": "wave.csv", "bound": 0.2}
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(cfg))
        scenario = load_scenario(str(cfg_path))
        assert isinstance(scenario.plant, RegulationPlant)
        assert scenario.plant.signal.value(10.0) == 0.2

    def test_missing_table_is_config_error(self, tmp_path):
        cfg = smooth_config()
        cfg["uncertainty"] = {"kind": "custom_table", "path": "nope.csv", "bound": 1.0}
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="table"):
            load_scenario(str(cfg_path))

    def test_table_shorter_than_horizon_rejected(self, tmp_path):
        # the load evaluates each signal at t_end, past the table's last knot
        (tmp_path / "short.csv").write_text("0.0,0.1\n1.0,0.1\n")
        cfg = smooth_config()
        cfg["uncertainty"] = {"kind": "custom_table", "path": "short.csv", "bound": 1.0}
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(cfg))
        with pytest.raises(Exception):
            load_scenario(str(cfg_path))
