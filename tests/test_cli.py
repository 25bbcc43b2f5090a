import json
import math
import os
import pickle
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from smcsim import cli, config, controllers, sim
from smcsim.cli import main
from smcsim.config import load_config, preset_path
from smcsim.errors import ParameterError, SimulationDiverged, TuningWarning
from smcsim.sim import IntegrationSettings, row_count


def write_scenario(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def short_smooth(tmp_path, t_end=1.0, name="short.json", **ctl_patch):
    cfg = load_config(preset_path("regulation-smooth"))
    cfg["integration"]["t_end"] = t_end
    if ctl_patch:
        cfg["controller"].update(ctl_patch)
    cfg["name"] = name.removesuffix(".json")
    return write_scenario(tmp_path, cfg, name)


class TestRun:
    def test_run_writes_outputs(self, tmp_path, capsys):
        rc = main(["run", short_smooth(tmp_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chattering_index" in out
        assert (tmp_path / "out" / "short.csv").exists()
        assert (tmp_path / "out" / "short.metrics.json").exists()
        assert (tmp_path / "out" / "short.metrics.txt").exists()
        payload = json.loads((tmp_path / "out" / "short.metrics.json").read_text())
        assert payload["meta"]["dt"] == 1e-4
        assert "ultimate_bound" in payload

    def test_run_accepts_preset_name_and_overrides(self, tmp_path):
        # the coarse dt legitimately trips the sample-rate rule of thumb
        with pytest.warns(TuningWarning):
            rc = main(["run", "regulation-smooth", "--out", str(tmp_path),
                       "--t-end", "0.5", "--dt", "0.001"])
        assert rc == 0
        data = np.loadtxt(tmp_path / "regulation-smooth.csv", delimiter=",", skiprows=1)
        assert data.shape[0] == 501

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = load_config(preset_path("regulation-smooth"))
        cfg["controller"]["phi"] = -1.0
        rc = main(["run", write_scenario(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "phi" in capsys.readouterr().err

    @pytest.mark.parametrize("phi", [9.5e153, 1e200])
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_phi_whose_double_square_overflows_exits_2(self, tmp_path, capsys, command, phi):
        # 2*phi*phi is inf: the shape function is -inf or NaN, the gain collapses.
        out = tmp_path / "out"
        argv = [command, short_smooth(tmp_path, t_end=0.6, phi=phi)]
        assert main(argv + (["--out", str(out)] if command == "run" else [])) == 2
        assert capsys.readouterr() == ("", f"error: controller: phi = {phi!r} is too large: "
                                       "2*phi*phi overflows (phi must be at most about "
                                       "9.48e153)\n")
        assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    def test_unsafe_name_exits_2(self, tmp_path, capsys):
        # The name is a file stem: "../escaped" would write beside --out.
        cfg = load_config(preset_path("regulation-smooth"))
        cfg["name"] = "../escaped"
        path = write_scenario(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: name: must be a file name stem")
        assert os.listdir(tmp_path) == ["scenario.json"]

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_not_a_directory_exits_2_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                       out):
        (tmp_path / "afile").write_text("kept")
        monkeypatch.setattr(cli, "run_scenario", lambda sc: pytest.fail("the scenario ran"))
        out = tmp_path / out
        assert main(["run", "regulation-smooth", "--t-end", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: --out {out}: {tmp_path / 'afile'} is not a directory\n"
        assert (tmp_path / "afile").read_text() == "kept"

    @pytest.mark.parametrize("content", [b'{"name": "\xff"}', b'{"name": ' + b"1" * 5000 + b"}",
                                         b"[" * 100_000 + b"]" * 100_000],
                             ids=["not-utf8", "5000-digit-int", "100000-deep"])
    def test_undecodable_scenario_file_exits_2(self, tmp_path, capsys, content):
        # bytes that are not UTF-8, an integer past Python's 4300-digit limit,
        # and lists nested past the recursion limit of json.load
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "invalid JSON" in err
        assert os.listdir(tmp_path) == ["scenario.json"]

    @pytest.mark.parametrize("bad_row", ["0.5,abc", "0.5"])
    def test_malformed_table_row_exits_2(self, tmp_path, capsys, bad_row):
        (tmp_path / "wave.csv").write_text(f"# t, value\n0.0,0.1\n{bad_row}\n2.0,0.1\n")
        cfg = load_config(preset_path("regulation-smooth"))
        cfg["integration"]["t_end"] = 1.0
        cfg["uncertainty"] = {"kind": "custom_table", "path": "wave.csv", "bound": 1.0}
        rc = main(["run", write_scenario(tmp_path, cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "wave.csv" in err and "row 3" in err

    def test_undecodable_table_exits_2(self, tmp_path, capsys):
        (tmp_path / "wave.csv").write_bytes(b"0.0,0.1\n\xff\xfe,0.2\n2.0,0.1\n")
        cfg = load_config(preset_path("regulation-smooth"))
        cfg["integration"]["t_end"] = 1.0
        cfg["uncertainty"] = {"kind": "custom_table", "path": "wave.csv", "bound": 1.0}
        rc = main(["run", write_scenario(tmp_path, cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "wave.csv" in capsys.readouterr().err

    def test_inapplicable_certificate_not_reported_as_satisfied(self, tmp_path):
        # v0 = 1.0005 lies below sigma/k = 1.4, so the certificate does not apply
        assert main(["run", "regulation-smooth", "--t-end", "2", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "regulation-smooth.metrics.json").read_text())
        assert payload["ultimate_bound"]["applicable"] is False
        assert payload["metrics"]["ultimate_bound_satisfied"] is None
        txt = (tmp_path / "regulation-smooth.metrics.txt").read_text()
        assert "ultimate_bound_satisfied" in txt
        assert [line.split()[-1] for line in txt.splitlines()
                if "ultimate_bound_satisfied" in line] == ["-"]

    def test_blow_up_exits_3(self, tmp_path, capsys):
        cfg = {
            "name": "boom",
            "plant": {"kind": "linear", "a": 60.0, "b": 1.0},
            "uncertainty": {"kind": "smooth_multi_sine", "amplitudes": [0.0],
                            "frequencies": [1.0], "phases": [0.0], "bound": 1.0},
            "controller": {"kind": "classical", "K": 0.001},
            "x0": [1.0],
            "integration": {"dt": 0.01, "substeps": 1, "t_end": 30.0},
        }
        rc = main(["run", write_scenario(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 3
        assert "blow-up" in capsys.readouterr().err

    def test_non_finite_surface_exits_3(self, tmp_path, capsys):
        # x0 is finite, but s = e_rate + lambda*e overflows to inf at the first
        # sample; the runner must report the blow-up, not pass it on to sgn(s).
        cfg = load_config(preset_path("tracking"))
        cfg["x0"] = [1e308, 1e308]
        cfg["integration"]["t_end"] = 0.01
        rc = main(["run", write_scenario(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 3
        assert "numerical blow-up" in capsys.readouterr().err

    def test_overflow_in_rk4_stage_exits_3(self, tmp_path, capsys):
        # The state is finite at every sample, but an RK4 stage value of the
        # first step overflows and math.sin raises ValueError on it.
        cfg = load_config(preset_path("tracking"))
        cfg["x0"] = [0.0, 1e200]
        cfg["integration"]["t_end"] = 0.01
        rc = main(["run", write_scenario(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical blow-up: state became non-finite at t = 0.0001 s "
                              "(row 1; last finite state x = [0.0, 1e+200], u = ")
        assert "gain = 0.001)" in err


    @pytest.mark.parametrize("argv", [["verify", "regulation-square", "--t-end", "1e20"],
                                      ["run", "regulation-smooth", "--t-end", "1e12"]])
    def test_unallocatable_log_exits_2(self, tmp_path, capsys, argv):
        # 1e24 rows exceed numpy's size limit and 1e16 rows need 71 PiB:
        # both allocations are refused at once, before anything is written.
        out = tmp_path / "out"
        rc = main(argv + (["--out", str(out)] if argv[0] == "run" else []))
        assert rc == 2
        assert f"{row_count(float(argv[3]), 1e-4)} rows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("substeps", [10**400, 10**300], ids=["1e400", "1e300"])
    def test_substeps_beyond_float_range_exits_2(self, tmp_path, capsys, substeps):
        # Any substeps but 1 is refused at load, before anything is run.
        cfg = load_config(preset_path("regulation-smooth"))
        cfg["integration"].update(substeps=substeps, t_end=0.001)
        out = tmp_path / "out"
        assert main(["run", write_scenario(tmp_path, cfg), "--out", str(out)]) == 2
        assert "integration.substeps: must be 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["breach", "divergence"])
    def test_failure_after_the_first_span_leaves_no_directory(self, tmp_path, capsys, case):
        # Both fail past row 14 000, after the first 8192-row span of the
        # CSV was written.
        if case == "breach":
            cfg = load_config(preset_path("regulation-smooth"))
            cfg["integration"]["t_end"] = 5.0
            cfg["uncertainty"] = {"kind": "smooth_multi_sine", "amplitudes": [1.5],
                                  "frequencies": [0.5], "phases": [0.0], "bound": 1.0}
        else:  # x grows as exp(500 t) and overflows at t = 1.4037
            cfg = {"name": "boom", "plant": {"kind": "linear", "a": 500.0, "b": 1.0},
                   "uncertainty": {"kind": "smooth_multi_sine", "amplitudes": [0.0],
                                   "frequencies": [1.0], "phases": [0.0], "bound": 1.0},
                   "controller": {"kind": "classical", "K": 0.001}, "x0": [1.0],
                   "integration": {"dt": 1e-4, "substeps": 1, "t_end": 2.0}}
        out = tmp_path / "out"
        rc = main(["run", write_scenario(tmp_path, cfg), "--out", str(out / "sub")])
        err = capsys.readouterr().err
        if case == "breach":
            assert (rc, err) == (2, "error: smooth_multi_sine exceeds its declared bound 1.0 "
                                    "at t = 1.4595: value 1.0000249808480643\n")
        else:
            assert rc == 3 and err.startswith("numerical blow-up: state became non-finite at "
                                              "t = 1.4037 s (row 14037;"), err
        assert not out.exists()

    def test_interrupt_mid_run_leaves_no_directory(self, tmp_path, monkeypatch):
        step, calls = controllers.DeltaAdaptiveSMC.step, []

        def interrupted(self, *args):
            calls.append(1)
            if len(calls) == 12000:
                raise KeyboardInterrupt
            return step(self, *args)

        monkeypatch.setattr(controllers.DeltaAdaptiveSMC, "step", interrupted)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            main(["run", "regulation-smooth", "--t-end", "2", "--out", str(out / "sub")])
        assert len(calls) == 12000
        assert not out.exists()

    def test_horizon_too_short_for_the_metrics_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "compare-smooth-adaptive", "--t-end", "0.3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: horizon too short to certify a 0.5 s band dwell\n"
        assert not out.exists()

    @pytest.mark.parametrize("ext", ["csv", "metrics.json"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch, ext):
        # The CSV is opened before the integration starts.
        blocked = tmp_path / f"regulation-smooth.{ext}"
        blocked.mkdir()
        if ext == "csv":
            monkeypatch.setattr(sim, "_integrate", lambda *_: pytest.fail("the scenario ran"))
        assert main(["run", "regulation-smooth", "--t-end", "0.5", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {tmp_path}: cannot write {blocked} ("), err
        assert os.listdir(tmp_path) == [blocked.name]


# dt is validated once, at the boundary: the controllers' steps take it as
# given, so a bad dt must never reach them.
@pytest.mark.parametrize("dt", [0.0, -1e-4, math.nan, math.inf, -math.inf])
def test_bad_dt_rejected_at_the_boundary(tmp_path, capsys, dt):
    with pytest.raises(ParameterError, match="dt must be a positive finite number"):
        IntegrationSettings(dt=dt)
    out = tmp_path / "out"
    assert main(["run", "regulation-smooth", f"--dt={dt!r}", "--out", str(out)]) == 2
    assert "dt" in capsys.readouterr().err
    assert not out.exists()


# Files that config refuses, each with its error: a top level that is not an
# object, and an "integration" that is not one.
MALFORMED = {
    "top level list": (None, "scenario: top level must be an object"),
    "integration list": ([1e-4, 1.0], "integration: expected <class 'dict'>, got list"),
    "integration string": ("1e-4", "integration: expected <class 'dict'>, got str"),
    "integration null": (None, "integration: expected <class 'dict'>, got NoneType"),
}


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_override_on_a_malformed_file_exits_2(tmp_path, capsys, command, case):
    # --t-end merges into an "integration" object only; any other file is
    # refused with the ConfigError that it gets without the override.
    integration, error = MALFORMED[case]
    cfg = load_config(preset_path("regulation-smooth"))
    cfg["integration"] = integration
    path = write_scenario(tmp_path, [cfg] if case == "top level list" else cfg)
    out = tmp_path / "out"
    argv = [command, path] + (["--out", str(out)] if command == "run" else [])
    for extra in ([], ["--t-end", "1"]):
        assert main(argv + extra) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not out.exists()


class TestCompare:
    def test_shared_scenario_table(self, tmp_path, capsys):
        files = []
        for preset in ("compare-smooth-adaptive", "compare-smooth-plestan-fast"):
            cfg = load_config(preset_path(preset))
            cfg["integration"]["t_end"] = 2.0
            files.append(write_scenario(tmp_path, cfg, preset + ".json"))
        rc = main(["compare", *files, "--out", str(tmp_path / "cmp")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lowest chattering_index" in out
        assert "compare-smooth-adaptive" in out
        assert (tmp_path / "cmp" / "compare-smooth-adaptive.csv").exists()
        assert (tmp_path / "cmp" / "compare-smooth-plestan-fast.csv").exists()

    def test_adaptive_flagged_lowest_chattering(self, tmp_path, capsys):
        files = []
        for preset in ("compare-smooth-adaptive", "compare-smooth-plestan-fast"):
            cfg = load_config(preset_path(preset))
            cfg["integration"]["t_end"] = 2.0
            files.append(write_scenario(tmp_path, cfg, preset + ".json"))
        main(["compare", *files, "--out", str(tmp_path / "cmp")])
        out = capsys.readouterr().out
        assert "* lowest chattering_index: compare-smooth-adaptive" in out

    def test_run_and_compare_write_the_same_files(self, tmp_path, capsys):
        # What a scenario's files record does not depend on the command: the
        # first scenario sets the group's band yardstick, so compare writes
        # the bytes that run writes, the ultimate-bound record included.
        files = []
        for preset in TRIO:
            cfg = load_config(preset_path(preset))
            cfg["integration"]["t_end"] = 1.0
            files.append(write_scenario(tmp_path, cfg, preset + ".json"))
        assert main(["run", files[0], "--out", str(tmp_path / "run")]) == 0
        assert main(["compare", *files, "--out", str(tmp_path / "cmp")]) == 0
        for ext in ("metrics.json", "metrics.txt", "csv"):
            name = f"{TRIO[0]}.{ext}"
            assert (tmp_path / "run" / name).read_bytes() == \
                (tmp_path / "cmp" / name).read_bytes(), name
        assert "ultimate_bound" in json.loads((tmp_path / "cmp" / f"{TRIO[0]}.metrics.json")
                                              .read_text())
        for preset in TRIO[1:]:
            payload = json.loads((tmp_path / "cmp" / f"{preset}.metrics.json").read_text())
            assert "ultimate_bound" not in payload, preset

    def test_mismatched_plants_rejected(self, tmp_path, capsys):
        a = short_smooth(tmp_path, name="a.json")
        cfg = load_config(preset_path("regulation-smooth"))
        cfg["integration"]["t_end"] = 1.0
        cfg["x0"] = [0.5]
        b = write_scenario(tmp_path, cfg, "b.json")
        rc = main(["compare", a, b, "--out", str(tmp_path)])
        assert rc == 2
        assert "share" in capsys.readouterr().err

    def test_needs_two(self, tmp_path):
        assert main(["compare", short_smooth(tmp_path)]) == 2

    @pytest.mark.parametrize("w", [1, 2])
    def test_repeated_name_rejected_before_any_run(self, tmp_path, capsys, monkeypatch, w):
        # Two scenarios named alike would write the same files.
        monkeypatch.setattr(cli, "_usable_cpus", lambda: w)
        monkeypatch.setattr(cli, "run_scenario",
                            lambda sc, csv_path=None: pytest.fail("a scenario ran"))
        files = [short_smooth(tmp_path, name=f"{label}.json") for label in ("a", "b")]
        for path in files:
            cfg = load_config(path)
            cfg["name"] = "same"
            write_scenario(tmp_path, cfg, os.path.basename(path))
        out = tmp_path / "out"
        assert main(["compare", *files, "--out", str(out)]) == 2
        assert "'same' is used 2 times" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("w", [1, 2])
    def test_unsafe_name_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch, w):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: w)
        monkeypatch.setattr(cli, "run_scenario",
                            lambda sc, csv_path=None: pytest.fail("a scenario ran"))
        files = [short_smooth(tmp_path, name=f"{label}.json") for label in ("a", "b")]
        cfg = load_config(files[1])
        cfg["name"] = "b/c"
        write_scenario(tmp_path, cfg, "b.json")
        out = tmp_path / "out"
        assert main(["compare", *files, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: name: must be a file name stem")
        assert not out.exists()

    @pytest.mark.parametrize("w", [1, 2])
    def test_out_not_a_directory_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch, w):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: w)
        monkeypatch.setattr(cli, "run_scenario",
                            lambda sc, csv_path=None: pytest.fail("a scenario ran"))
        (tmp_path / "afile").write_text("kept")
        files = [short_smooth(tmp_path, name=f"{label}.json") for label in ("a", "b")]
        out = tmp_path / "afile" / "sub"
        assert main(["compare", *files, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: --out {out}: {tmp_path / 'afile'} is not a directory\n"
        assert (tmp_path / "afile").read_text() == "kept"

    @pytest.mark.parametrize("w", [1, 2])
    def test_breach_after_the_first_span_leaves_no_csv(self, tmp_path, capsys, monkeypatch,
                                                       w):
        # The shared disturbance breaks its bound at t = 1.46, after the
        # first 8192-row span of each CSV was written; t_end = 5 lies within
        # it, so the scenarios load.
        files = []
        for preset in TRIO[:2]:
            cfg = load_config(preset_path(preset))
            cfg["integration"]["t_end"] = 5.0
            cfg["uncertainty"] = {"kind": "smooth_multi_sine", "amplitudes": [1.5],
                                  "frequencies": [0.5], "phases": [0.0], "bound": 1.0}
            files.append(write_scenario(tmp_path, cfg, preset + ".json"))
        out = tmp_path / "out"
        rc, _, err, _ = compare_on(monkeypatch, capsys, w, files, out)
        assert (rc, err) == (2, "error: smooth_multi_sine exceeds its declared bound 1.0 at "
                                "t = 1.4595: value 1.0000249808480643\n")
        assert os.listdir(out) == []
        assert_no_child_left()

    @pytest.mark.parametrize("w", [1, 2])
    def test_divergence_leaves_no_csv_of_its_own(self, tmp_path, capsys, monkeypatch, w):
        files = compare_files(tmp_path, t_end=1.0)[:1]
        cfg = load_config(preset_path(TRIO[1]))
        cfg["integration"]["t_end"] = 1.0
        cfg["name"] = "boom"
        cfg["controller"].update(K_bar=1e300, K0=1e300)
        files.append(write_scenario(tmp_path, cfg, "boom.json"))
        out = tmp_path / "out"
        rc, _, err, _ = compare_on(monkeypatch, capsys, w, files, out)
        assert rc == 3 and err.startswith("numerical blow-up: "), err
        assert sorted(os.listdir(out)) == [f"{TRIO[0]}.{ext}" for ext in
                                           ("csv", "metrics.json", "metrics.txt")]
        assert_no_child_left()

    @pytest.mark.parametrize("w", [1, 2])
    def test_horizon_too_short_for_the_metrics_leaves_no_csv(self, tmp_path, capsys,
                                                             monkeypatch, w):
        out = tmp_path / "out"
        rc, _, err, _ = compare_on(monkeypatch, capsys, w, compare_files(tmp_path, 0.3)[:2], out)
        assert (rc, err) == (2, "error: horizon too short to certify a 0.5 s band dwell\n")
        assert os.listdir(out) == []
        assert_no_child_left()

    @pytest.mark.parametrize("w", [1, 2])
    @pytest.mark.parametrize("ext", ["csv", "metrics.json"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch, w, ext):
        out = tmp_path / "out"
        blocked = out / f"{TRIO[0]}.{ext}"
        blocked.mkdir(parents=True)
        rc, _, err, _ = compare_on(monkeypatch, capsys, w, compare_files(tmp_path)[:2], out)
        assert rc == 2 and err.startswith(f"error: --out {out}: cannot write {blocked} ("), err
        assert blocked.is_dir() and not (out / f"{TRIO[0]}.csv").is_file()
        assert_no_child_left()


class TestVerify:
    def test_reports_bounds_and_checks(self, tmp_path, capsys):
        rc = main(["verify", short_smooth(tmp_path, t_end=5.0)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "eta = " in out
        assert "sigma = " in out
        assert "delta = " in out
        assert "ultimate-bound check:" in out
        assert "excursion-bound check: pass" in out
        assert "decay check" in out

    def test_k_zero_not_applicable_exit_0(self, tmp_path, capsys):
        path = short_smooth(tmp_path, t_end=1.0, k=0.0)
        rc = main(["verify", path])
        assert rc == 0
        assert "not applicable" in capsys.readouterr().out

    def test_underflowing_k_rho_exits_0(self, tmp_path, capsys):
        # k*rho underflows to 0, so 1/(k*rho) has no float value: sigma is inf.
        # Starting on the surface keeps the gain at 0, so V' = |s| + gain/k
        # stays finite (from x0 = 1 it overflows, a divergence).
        cfg = load_config(preset_path("regulation-smooth"))
        cfg["controller"].update(k=1e-200, rho=1e-200)
        cfg["x0"], cfg["integration"]["t_end"] = [0.0], 0.0002
        assert main(["verify", write_scenario(tmp_path, cfg)]) == 0
        out = capsys.readouterr().out
        assert "sigma = inf" in out
        # k > 0: the check is inapplicable because sigma and b are inf, not because k = 0.
        assert ("ultimate-bound check: not applicable (sigma = inf, b = inf: not finite at "
                "k*rho = 0)\n") in out

    def test_tracking_has_no_bound(self, tmp_path, capsys):
        cfg = load_config(preset_path("tracking"))
        cfg["integration"]["t_end"] = 1.0
        rc = main(["verify", write_scenario(tmp_path, cfg)])
        assert rc == 0
        assert "not applicable" in capsys.readouterr().out

    def test_non_adaptive_rejected(self, tmp_path, capsys):
        rc = main(["verify", "regulation-smooth-classical"])
        assert rc == 2
        assert "delta_adaptive" in capsys.readouterr().err

    def test_tolerance_moves_verdict_and_printed_limit(self, tmp_path, capsys, monkeypatch):
        # x0 = 3: the ultimate-bound certificate applies (v0 > sigma/k).
        cfg = load_config(preset_path("regulation-smooth"))
        cfg["x0"], cfg["integration"]["t_end"] = [3.0], 3.0
        path = write_scenario(tmp_path, cfg)
        checks = r"(pass|FAIL)  max V' after T = (\S+) vs (\S+)\*b = (\S+)$"
        excursion = r"(pass|FAIL)  max \|s\| after band entry = (\S+) vs (\S+)\*delta = (\S+)$"
        for tol, verdict in ((0.05, "pass"), (-0.999, "FAIL")):
            monkeypatch.setattr(sim, "CERTIFICATE_TOL", tol)
            assert main(["verify", path]) == 0
            out = capsys.readouterr().out
            b = float(re.search(r" b = (\S+)$", out, re.M).group(1))
            delta = float(re.search(r" delta = (\S+)$", out, re.M).group(1))
            for pattern, level in ((checks, b), (excursion, delta)):
                status, peak, factor, limit = re.search(pattern, out, re.M).groups()
                assert (status, factor) == (verdict, f"{1.0 + tol:g}")
                assert math.isclose(float(limit), level * (1.0 + tol), rel_tol=1e-5)

    def test_small_rho_ends(self, tmp_path):
        # The overshoot bisection's bracket is wider than 2**19 here.
        path = short_smooth(tmp_path, t_end=1.0, rho=1e-4)
        res = smcsim_cli("verify", path)
        assert res.returncode == 0, res.stderr
        assert re.search(r"^m = \S+  delta = \S+$", res.stdout, re.M)
        res = smcsim_cli("run", path, "--out", str(tmp_path / "out"))
        assert res.returncode == 0, res.stderr

    def test_fewer_than_three_rows_exits_2_before_any_output(self, capsys, monkeypatch):
        # 2 rows: the decay check's central differences need 3, so the
        # command refuses before it integrates or prints anything.
        monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: pytest.fail("the scenario ran"))
        assert main(["verify", "regulation-square", "--t-end", "1e-4"]) == 2
        assert capsys.readouterr() == ("", "error: need at least 3 rows for central "
                                           "differences\n")

    def test_holds_only_the_columns_its_checks_read(self, capsys, monkeypatch):
        # The log holds t, x (s is its view) and gain whole; the other five
        # columns are held one span at a time. The
        # traced peak (numpy reports its buffers to tracemalloc) stays under
        # the three whole columns plus 1 MiB for those spans, one block's
        # row lists and the checks' chunk temporaries; holding every column
        # (eight, as before) would exceed it.
        run, kinds = cli.run_scenario, {}

        def recording(*args, **kwargs):
            log = run(*args, **kwargs)
            kinds.update((name, type(getattr(log, name))) for name in sim.COLUMNS)
            return log

        monkeypatch.setattr(cli, "run_scenario", recording)
        argv = ["verify", "regulation-square", "--t-end", "2"]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert "decay check" in capsys.readouterr().out
        assert kinds == {name: np.ndarray if name in ("t", "x", "s", "gain") else type(None)
                         for name in sim.COLUMNS}
        n = row_count(2.0, 1e-4)
        assert peak < 3 * 8 * n + (1 << 20), peak

    def test_underflowing_rho_phi_exits_0(self, tmp_path, capsys):
        # rho*phi = 1e-330 underflows to 0: the stiffness ceiling is capped
        # at the largest float instead of dividing by 0. Starting on the
        # surface keeps the state small, so V stays finite over the 3 rows
        # (from x0 = 1 it overflows; see TestSignalsAndColumns).
        cfg = load_config(preset_path("regulation-smooth"))
        cfg["controller"].update(rho=1e-300, phi=1e-30)
        cfg["x0"] = [0.0]
        with pytest.warns(TuningWarning, match="band crossing"):
            assert main(["verify", write_scenario(tmp_path, cfg), "--t-end", "2e-4"]) == 0
        out = capsys.readouterr().out
        m, delta = map(float, re.search(r"^m = (\S+)  delta = (\S+)$", out, re.M).groups())
        assert math.isfinite(m) and math.isfinite(delta)


def smcsim_cli(*argv, timeout=60):
    """`python -m smcsim *argv` in a child process, this package first on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-m", "smcsim", *argv], capture_output=True,
                          text=True, timeout=timeout, env=env)


class TestSignalsAndColumns:
    """A declared signal bound is checked on the values the runner
    integrates, and an overflowing log column is a divergence."""

    @staticmethod
    def table_scenario(tmp_path, rows, t_end, dt=1e-4):
        (tmp_path / "wave.csv").write_text("".join(f"{t!r},{v!r}\n" for t, v in rows))
        cfg = load_config(preset_path("regulation-smooth"))
        cfg["integration"].update(t_end=t_end, dt=dt)
        cfg["uncertainty"] = {"kind": "custom_table", "path": "wave.csv", "bound": 1.0}
        return write_scenario(tmp_path, cfg)

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_spike_between_samples_exits_2(self, tmp_path, capsys, command):
        # A 2e-7 s wide spike to 5 at t = 0.5: the instants 49999/99999 and
        # 50000/99999 of an even sampling of [0, 1] fall on either side of
        # it, but t = 0.5 is one of the runner's samples.
        path = self.table_scenario(tmp_path, [(0.0, 0.0), (0.4999999, 0.0), (0.5, 5.0),
                                              (0.5000001, 0.0), (1.0, 0.0)], t_end=1.0)
        out_dir = tmp_path / "out"
        assert main([command, path] + (["--out", str(out_dir)] if command == "run" else [])) == 2
        out, err = capsys.readouterr()
        assert err == "error: custom_table exceeds its declared bound 1.0 at t = 0.5: value 5.0\n"
        assert out == ""  # verify prints only after its checks
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_breach_names_earliest_instant_of_block(self, tmp_path, capsys, command):
        # At dt = 0.0199 the RK4 midpoint 73.5*dt breaks the bound before the
        # sample 74*dt does; t = 0 and t_end = 5 are within it.
        cfg = load_config(preset_path("regulation-smooth"))
        cfg["integration"].update(t_end=5.0, dt=0.0199)
        cfg["uncertainty"] = {"kind": "smooth_multi_sine", "amplitudes": [1.5],
                              "frequencies": [0.5], "phases": [0.0], "bound": 1.0}
        path = write_scenario(tmp_path, cfg)
        out_dir = tmp_path / "out"
        with pytest.warns(TuningWarning, match="samples fit a worst-case band crossing"):
            rc = main([command, path] + (["--out", str(out_dir)] if command == "run" else []))
        assert rc == 2
        err = capsys.readouterr().err
        assert err == ("error: smooth_multi_sine exceeds its declared bound 1.0 at "
                       "t = 1.46265: value 1.0017846081172268\n")
        assert not out_dir.exists()

    def test_table_covering_exactly_the_horizon_runs(self, tmp_path):
        # The last sample, 700*1e-3, lies one ulp past t_end = 0.7 and the
        # last knot; it reads the last knot's value.
        path = self.table_scenario(tmp_path, [(0.0, 0.0), (0.7, 1.0)], t_end=0.7, dt=1e-3)
        assert main(["verify", path]) == 0
        assert main(["run", path, "--out", str(tmp_path)]) == 0
        csv = tmp_path / "regulation-smooth.csv"
        columns = csv.read_text().split("\n", 1)[0].split(",")
        last = np.loadtxt(csv, delimiter=",", skiprows=1)[-1]
        assert last[0] == 700 * 1e-3 > 0.7
        assert last[columns.index("delta_f")] == 1.0

    def test_table_ending_before_the_horizon_is_refused_at_load(self, tmp_path, capsys):
        path = self.table_scenario(tmp_path, [(0.0, 0.0), (0.7 - 1e-9, 1.0)], t_end=0.7,
                                   dt=1e-3)
        assert main(["verify", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: uncertainty: t = 0.7 outside table horizon [0.0, 0.69")

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_overflowing_lyapunov_value_exits_3(self, tmp_path, command):
        # At rho = 1e-300 the gain grows by about 1e296 a sample. At row 2
        # x, s and u are still finite but V overflows; numpy must not warn.
        path = short_smooth(tmp_path, t_end=2e-4, rho=1e-300, phi=1e-30)
        res = smcsim_cli(command, path, *(["--out", str(tmp_path)] if command == "run" else []))
        assert (res.returncode, res.stdout) == (3, "")  # verify prints only after its checks
        assert "RuntimeWarning" not in res.stderr
        assert "numerical blow-up: V became non-finite at t = 0.0002 s (row 2; state x = [" \
            in res.stderr


class TestLoadWarnings:
    """The commands show each load-time TuningWarning as one line naming the
    scenario file and the section it concerns."""

    def test_large_k(self, tmp_path):
        path = short_smooth(tmp_path, t_end=0.5, k=500.0)
        res = smcsim_cli("verify", path)
        assert res.returncode == 0
        assert res.stderr == (f"warning: {path}: controller: feedback gain k = 500 exceeds "
                              "1/eta = 241.421; the adaptation may stall inside the band\n")

    def off_grid_square(self, tmp_path, name, kind="delta_adaptive"):
        cfg = load_config(preset_path("regulation-square"))
        cfg["uncertainty"]["half_period"] = 2.50005
        cfg["integration"]["t_end"] = 0.5
        if kind != "delta_adaptive":
            cfg["controller"] = {"kind": kind, "K": 3.0}
        cfg["name"] = name
        return write_scenario(tmp_path, cfg, name + ".json")

    def test_off_grid_half_period(self, tmp_path):
        path = self.off_grid_square(tmp_path, "square")
        res = smcsim_cli("verify", path)
        assert res.returncode == 0
        assert res.stderr == (f"warning: {path}: uncertainty: square_sequence half_period "
                              "2.50005 is not a multiple of dt = 0.0001; edges fall between "
                              "samples\n")

    def test_compare_names_each_scenario(self, tmp_path):
        # The same text from two files is shown twice, once per file.
        paths = [self.off_grid_square(tmp_path, "a"),
                 self.off_grid_square(tmp_path, "b", kind="classical")]
        res = smcsim_cli("compare", *paths, "--out", str(tmp_path / "out"))
        assert res.returncode == 0, res.stderr
        assert res.stderr.splitlines() == [
            f"warning: {p}: uncertainty: square_sequence half_period 2.50005 is not a "
            "multiple of dt = 0.0001; edges fall between samples" for p in paths]

    def test_library_callers_still_get_the_warning(self, tmp_path):
        with pytest.warns(TuningWarning) as caught:
            config.load_scenario(short_smooth(tmp_path, t_end=0.5, k=500.0))
        assert [(w.message.section, str(w.message)) for w in caught] == [
            ("controller", "feedback gain k = 500 exceeds 1/eta = 241.421; the adaptation "
                           "may stall inside the band")]


class TestPresetsCommand:
    def test_list(self, capsys):
        assert main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        assert "regulation-smooth" in out
        assert "tracking" in out


class TestEndToEndDeterminism:
    def test_byte_identical_runs_through_real_cli(self, tmp_path):
        outs = []
        for sub in ("r1", "r2"):
            res = subprocess.run(
                [sys.executable, "-m", "smcsim", "run", "regulation-smooth",
                 "--t-end", "1.0", "--out", str(tmp_path / sub)],
                capture_output=True, text=True,
            )
            assert res.returncode == 0, res.stderr
            outs.append((tmp_path / sub / "regulation-smooth.csv").read_bytes())
        assert outs[0] == outs[1]


TRIO = ("compare-smooth-adaptive", "compare-smooth-plestan-fast", "compare-smooth-plestan-slow")


def compare_files(tmp_path, t_end=0.5, count=4):
    """The compare-smooth trio cut to t_end, then count - 3 delta-adaptive
    scenarios on the same plant with slower adaptations (the first of them
    "slow-adaptive", at rho = 3)."""
    files = []
    for preset in TRIO:
        cfg = load_config(preset_path(preset))
        cfg["integration"]["t_end"] = t_end
        files.append(write_scenario(tmp_path, cfg, preset + ".json"))
    for j in range(count - 3):
        cfg["name"] = f"slow-adaptive-{j}" if j else "slow-adaptive"
        cfg["controller"] = dict(load_config(preset_path(TRIO[0]))["controller"], rho=3.0 + j)
        files.append(write_scenario(tmp_path, cfg, cfg["name"] + ".json"))
    return files


def compare_on(monkeypatch, capsys, w, files, out):
    """smcsim compare with w usable CPUs; (exit code, stdout, stderr, forks)."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(cli, "_usable_cpus", lambda: w)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    rc = main(["compare", *files, "--out", str(out)])
    cap = capsys.readouterr()
    return rc, cap.out, cap.err, len(forks)


def wait_for(cond, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class FirstCall(Exception):
    """Raised by a first-call hook, as the benchmark's set-up probe does."""


class TestForkedCompare:
    # W is n below 2*w usable CPUs, else w: (3, 2) runs three processes at
    # once, (4, 2) two processes of two scenarios each, (7, 3) three.
    @pytest.mark.parametrize("n, w, forks", [(2, 2, 1), (3, 2, 2), (4, 2, 1), (4, 3, 3),
                                             (7, 3, 2)],
                             ids=["2-2", "3-2", "4-2", "4-3", "7-3"])
    def test_outputs_identical_to_one_process(self, tmp_path, monkeypatch, capsys, n, w,
                                              forks):
        files = compare_files(tmp_path, count=max(n, 4))[:n]
        one = compare_on(monkeypatch, capsys, 1, files, tmp_path / "one")
        many = compare_on(monkeypatch, capsys, w, files, tmp_path / "many")
        assert one[0] == many[0] == 0
        assert one[1:3] == many[1:3]
        assert (one[3], many[3]) == (0, forks)
        names = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert len(names) == 3 * n
        assert names == sorted(p.name for p in (tmp_path / "many").iterdir())
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "many" / name).read_bytes(), name
        assert_no_child_left()

    def test_processes_capped_by_scenarios_and_fork(self, tmp_path, monkeypatch, capsys):
        files = compare_files(tmp_path, t_end=1.0)[:2]
        assert compare_on(monkeypatch, capsys, 8, files, tmp_path)[3] == 1
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
        assert main(["compare", *files, "--out", str(tmp_path)]) == 0

    def test_unpicklable_controller_attribute(self, tmp_path, monkeypatch, capsys):
        # The children inherit the scenarios through fork; nothing is pickled
        # on the way in.
        for kind in ("DeltaAdaptiveSMC", "PlestanAdaptiveSMC"):
            def build(cls=getattr(config, kind), **kw):
                ctl = cls(**kw)
                ctl.hook = lambda: None
                return ctl
            monkeypatch.setattr(config, kind, build)
        files = compare_files(tmp_path, t_end=1.0)[:2]
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(config.load_scenario(files[1]))
        rc, out, err, forks = compare_on(monkeypatch, capsys, 2, files, tmp_path)
        assert (rc, forks) == (0, 1), err
        assert "lowest chattering_index" in out

    @staticmethod
    def slow_fork(monkeypatch):
        """os.fork, after which this process sleeps 0.3 s: a child that
        found a ticket in the queue then would take the first."""
        fork = os.fork

        def slow():
            pid = fork()
            if pid:
                time.sleep(0.3)
            return pid

        monkeypatch.setattr(os, "fork", slow)

    @pytest.mark.parametrize("n", [2, 3])
    def test_caller_runs_the_first_item(self, tmp_path, monkeypatch, capsys, n):
        # On 2 CPUs, 2 scenarios run on W = 2 processes and 3 on W = 3.
        parent, run = os.getpid(), cli.run_scenario
        ran = tmp_path / "ran"
        ran.mkdir()

        def recording(sc, csv_path=None):
            (ran / f"{sc.name}.{os.getpid()}").touch()
            return run(sc, csv_path)

        self.slow_fork(monkeypatch)
        monkeypatch.setattr(cli, "run_scenario", recording)
        files = compare_files(tmp_path)[:n]
        rc, _, err, forks = compare_on(monkeypatch, capsys, 2, files, tmp_path / "out")
        assert (rc, forks) == (0, n - 1), err
        assert (ran / f"{TRIO[0]}.{parent}").exists()
        assert len(list(ran.iterdir())) == n
        assert_no_child_left()

    @pytest.mark.parametrize("n", [2, 3])
    def test_first_call_hook_fires_in_the_caller(self, tmp_path, monkeypatch, capsys, n):
        # The hook raises at the first call in each process, as a set-up
        # probe does; the calling process's own first call must come.
        parent, run = os.getpid(), cli.run_scenario
        fired = tmp_path / "fired"
        fired.mkdir()

        def first(sc, csv_path=None):
            (fired / str(os.getpid())).touch()
            cli.run_scenario = run
            raise FirstCall

        self.slow_fork(monkeypatch)
        monkeypatch.setattr(cli, "run_scenario", first)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        with pytest.raises(FirstCall):
            main(["compare", *compare_files(tmp_path)[:n], "--out", str(tmp_path / "out")])
        assert (fired / str(parent)).exists()
        assert_no_child_left()

    def test_slow_process_runs_fewer(self, tmp_path, monkeypatch, capsys):
        # This process holds its first scenario until the child has run the
        # other three: the queue hands each to whichever process is free.
        parent, run = os.getpid(), cli.run_scenario
        done = tmp_path / "done"
        done.mkdir()

        def recording(sc, csv_path=None):
            if os.getpid() == parent:
                wait_for(lambda: len(list(done.iterdir())) == 3)
            log = run(sc, csv_path)
            (done / f"{sc.name}.{os.getpid()}").touch()
            return log

        files = compare_files(tmp_path)
        one = compare_on(monkeypatch, capsys, 1, files, tmp_path / "one")
        monkeypatch.setattr(cli, "run_scenario", recording)
        many = compare_on(monkeypatch, capsys, 2, files, tmp_path / "many")
        assert one[:3] == many[:3] and one[0] == 0
        pids = [p.suffix for p in done.iterdir()]
        assert sorted(pids.count(pid) for pid in set(pids)) == [1, 3]
        for name in os.listdir(tmp_path / "one"):
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "many" / name).read_bytes(), name
        assert_no_child_left()

    def test_child_without_result_exits_2(self, tmp_path, monkeypatch, capsys):
        # 3 scenarios on 2 CPUs fork twice. This process runs input 1 and
        # holds it until a child has ended; the first child to read the
        # queue takes input 2, and a child that ends sends no result.
        parent, run = os.getpid(), cli.run_scenario
        died = tmp_path / "died"

        def dying(sc, csv_path=None):
            if os.getpid() != parent:
                died.touch()
                os._exit(7)
            wait_for(died.exists)
            return run(sc, csv_path)

        monkeypatch.setattr(cli, "run_scenario", dying)
        files = compare_files(tmp_path, t_end=1.0)[:3]
        rc, out, err, _ = compare_on(monkeypatch, capsys, 2, files, tmp_path)
        assert (rc, out) == (2, "")
        assert err == "error: the process running input 2 of 3 ended without a result " \
            "(exit status 7)\n"
        assert_no_child_left()

    @pytest.mark.parametrize("w", [1, 2])
    def test_no_scenario_starts_after_a_failure(self, tmp_path, monkeypatch, capsys, w):
        # The failing scenario is first, and this process runs it; at w = 2
        # (5 scenarios, so two processes) the child may have taken the second
        # before the failure, but no process takes a third.
        run = cli.run_scenario
        started = tmp_path / "started"
        started.mkdir()

        def failing(sc, csv_path=None):
            (started / sc.name).touch()
            if sc.name == "fails":
                raise ParameterError("g vanished")
            return run(sc, csv_path)

        monkeypatch.setattr(cli, "run_scenario", failing)
        cfg = load_config(preset_path(TRIO[0]))
        cfg["integration"]["t_end"] = 0.5
        files = []
        for name in ("fails", "ok1", "ok2", "ok3", "ok4"):
            cfg["name"] = name
            files.append(write_scenario(tmp_path, cfg, name + ".json"))
        rc, out, err, _ = compare_on(monkeypatch, capsys, w, files, tmp_path / "out")
        assert (rc, out, err) == (2, "", "error: g vanished\n")
        assert {"fails"} <= set(os.listdir(started)) <= {"fails", "ok1"}
        assert_no_child_left()

    @pytest.mark.parametrize("w", [1, 2])
    @pytest.mark.parametrize("order, code", [(("ok", "diverges", "fails"), 3),
                                             (("ok", "fails", "diverges"), 2)])
    def test_first_failure_in_input_order_decides(self, tmp_path, monkeypatch, capsys,
                                                  w, order, code):
        # At w = 2 the three inputs run at once on three processes; the
        # first failure in input order decides, whichever ends first.
        run = cli.run_scenario

        def failing(sc, csv_path=None):
            if sc.name == "diverges":
                raise SimulationDiverged(0.125, row=3, state=(1.0,), u=2.0, gain=3.0)
            if sc.name == "fails":
                raise ParameterError("g vanished")
            return run(sc, csv_path)

        monkeypatch.setattr(cli, "run_scenario", failing)
        cfg = load_config(preset_path(TRIO[0]))
        cfg["integration"]["t_end"] = 1.0
        files = []
        for name in order:
            cfg["name"] = name
            files.append(write_scenario(tmp_path, cfg, name + ".json"))
        rc, out, err, _ = compare_on(monkeypatch, capsys, w, files, tmp_path / "out")
        assert (rc, out) == (code, "")
        expected = {3: "numerical blow-up: state became non-finite at t = 0.125 s",
                    2: "error: g vanished"}[code]
        assert err.startswith(expected) and "Traceback" not in err
        assert_no_child_left()

    def test_real_divergence_same_at_one_and_two_processes(self, tmp_path, monkeypatch,
                                                           capsys):
        files = compare_files(tmp_path)[:1]
        cfg = load_config(preset_path(TRIO[1]))
        cfg["integration"]["t_end"] = 0.5
        cfg["name"] = "boom"
        cfg["controller"].update(K_bar=1e300, K0=1e300)
        files.append(write_scenario(tmp_path, cfg, "boom.json"))
        one = compare_on(monkeypatch, capsys, 1, files, tmp_path / "one")
        two = compare_on(monkeypatch, capsys, 2, files, tmp_path / "two")
        assert one[:3] == two[:3]
        assert one[0] == 3 and one[2].startswith("numerical blow-up: ")
        assert two[3] == 1
        assert_no_child_left()
