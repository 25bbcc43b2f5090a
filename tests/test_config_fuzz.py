"""Config fuzz: a mutated preset builds into a Scenario or fails with a
ConfigError, never with another exception, both through build_scenario and
written to a file and loaded with a t_end override, as ``--t-end`` loads it;
and the explicit examples, run through the CLI, never exit 1.

Mutations drop a field, retype or replace a value, or swap a kind, anywhere
in the nested dict. Scenarios are only built, never run. The custom_table
seed reads its table from a temporary directory, and every path the fuzz
can substitute is a relative name inside it.
"""

import copy
import json
import os
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from smcsim.cli import main  # noqa: E402
from smcsim.config import (  # noqa: E402
    build_scenario,
    list_presets,
    load_config,
    load_scenario,
    preset_path,
)
from smcsim.errors import ConfigError  # noqa: E402
from smcsim.sim import Scenario  # noqa: E402

KINDS = ["smooth_multi_sine", "square_sequence", "custom_table", "regulation", "linear",
         "tracking", "multiplicative_plus_additive", "classical", "boundary_layer", "utkin",
         "plestan", "delta_adaptive"]

SEEDS = {name: load_config(preset_path(name)) for name in list_presets()}
SEEDS["table"] = copy.deepcopy(SEEDS["regulation-smooth"])
SEEDS["table"]["uncertainty"] = {"kind": "custom_table", "path": "wave.csv", "bound": 1.0}

VALUES = st.one_of(
    st.floats(),
    st.integers(),
    st.sampled_from([0, -1, 10**400, -(10**400), 1e-320, 1e306, 1e20]),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "x", "wave.csv", "nope.csv", "sub/../wave.csv", "a\x00b"] + KINDS),
    st.lists(st.one_of(st.floats(), st.integers(-3, 3)), max_size=3),
    st.lists(st.lists(st.floats(), max_size=3), max_size=2),
    st.just({}),
)


def _paths(node, prefix=()):
    """Every key path below node, depth first."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _parent(cfg, path):
    for key in path[:-1]:
        cfg = cfg[key]
    return cfg


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(SEEDS[draw(st.sampled_from(sorted(SEEDS)))])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(cfg))
        if not paths:
            break
        action = draw(st.sampled_from(["drop", "replace", "kind"]))
        kind_paths = [p for p in paths if p[-1] == "kind"]
        if action == "kind" and kind_paths:
            path = draw(st.sampled_from(kind_paths))
            _parent(cfg, path)[path[-1]] = draw(st.sampled_from(KINDS))
            continue
        path = draw(st.sampled_from(paths))
        if action == "drop":
            del _parent(cfg, path)[path[-1]]
        else:
            _parent(cfg, path)[path[-1]] = draw(VALUES)
    return cfg


def _with(name, section, **fields):
    cfg = copy.deepcopy(SEEDS[name])
    cfg[section].update(fields)
    return cfg


# Inputs that once ended in a traceback.
EXAMPLES = [
    _with("regulation-square", "uncertainty", amplitudes=[[0.0, 1.0], [1e306, 1.0]]),
    _with("regulation-square", "integration", t_end=1e20),
    _with("regulation-smooth", "integration", t_end=10**400),
    _with("regulation-smooth", "integration", substeps=True),
    _with("regulation-square", "integration", dt=1e-320),
    _with("table", "uncertainty", path="a\x00b"),
    _with("table", "integration", t_end=2000.0),
    _with("regulation-smooth", "integration", substeps=10**400, t_end=0.001),
    # phi*phi underflows to 0, and the shape function divided by it at s = 0.
    {**_with("regulation-smooth", "controller", phi=1e-200), "x0": [0.0],
     "integration": {"dt": 1e-4, "substeps": 1, "t_end": 0.01}},
    # 2*phi*phi overflows: the shape function is -inf or NaN and the gain collapses.
    {**_with("regulation-smooth", "controller", phi=1e200),
     "integration": {"dt": 1e-4, "substeps": 1, "t_end": 0.6}},
]


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "wave.csv").write_text("0.0,0.5\n1000.0,-0.5\n")
    return str(path)


@settings(max_examples=300, deadline=None)
@given(cfg=mutated_configs())
def test_mutated_config_builds_or_raises_config_error(table_dir, cfg):
    path = os.path.join(table_dir, "scenario.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    for build in (lambda: build_scenario(cfg, base_dir=table_dir),
                  lambda: load_scenario(path, overrides={"t_end": 0.5})):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                scenario = build()
            except ConfigError:
                continue
        assert isinstance(scenario, Scenario)


for _cfg in EXAMPLES:
    test_mutated_config_builds_or_raises_config_error = example(cfg=_cfg)(
        test_mutated_config_builds_or_raises_config_error)


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("cfg", EXAMPLES)
def test_no_command_exits_1(tmp_path, capsys, command, cfg):
    # Exit 1 is a traceback: every input must end in 0, 2 (config) or 3 (divergence).
    (tmp_path / "wave.csv").write_text("0.0,0.5\n1000.0,-0.5\n")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    argv = [command, str(path)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv) in (0, 2, 3)
