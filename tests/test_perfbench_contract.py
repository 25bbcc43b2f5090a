"""The names perfbench's tracer replaces must exist, and config must build
through them at call time.

perfbench/tracing.py swaps config's class names for instrumented factories
and wraps public functions of cli, config and core by name. The benchmark is
not part of the test suite, so without this contract a builder that captured
a class at import time would pass every other test and silently stop the
traced step counts.
"""

import importlib.util
import pathlib

import pytest

from smcsim import cli, config, core, sim
from smcsim.config import build_scenario, load_config, preset_path
from smcsim.controllers import DeltaAdaptiveSMC

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# The names perfbench/passrun.py wraps on cli and on its library namespace.
CLI_NAMES = ("resolve_scenario", "load_scenario", "run_scenario", "write_csv",
             "compute_metrics", "lyapunov_trace", "certificate_summary",
             "verify_ultimate_bound", "verify_band_excursion", "main")
SIM_NAMES = ("run_scenario", "compute_metrics", "certificate_summary",
             "verify_ultimate_bound", "verify_band_excursion", "lyapunov_trace")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_exist(tracing):
    for name in CLI_NAMES:
        assert callable(getattr(cli, name)), name
        assert name in tracing.SPAN_NAMES, name
    for name in SIM_NAMES:
        assert callable(getattr(sim, name)), name
    assert callable(config.build_scenario)
    assert callable(config.verify_signal_bound)
    assert callable(core.overshoot_bound)
    for name in (tracing.CONTROLLER_CLASSES + tracing.SIGNAL_CLASSES
                 + tracing.REFERENCE_CLASSES + tracing.PLANT_CLASSES):
        assert isinstance(getattr(config, name), type), name


def test_build_looks_classes_up_at_call_time(monkeypatch):
    class Marked(DeltaAdaptiveSMC):
        pass

    monkeypatch.setattr(config, "DeltaAdaptiveSMC", Marked)
    scenario = build_scenario(load_config(preset_path("regulation-smooth")))
    assert isinstance(scenario.controller, Marked)


def test_tracer_counts_controller_steps(tracing, monkeypatch):
    for name in tracing.CONTROLLER_CLASSES:
        monkeypatch.setattr(config, name, getattr(config, name))
    tracer = tracing.Tracer()
    tracer.instrument_config(config, count=False)
    raw = load_config(preset_path("regulation-square"))
    raw["integration"]["t_end"] = 0.01
    log = sim.run_scenario(build_scenario(raw))
    assert tracer.cells["controller_steps"][0] == len(log) == 101
