import json
import math
import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest

from smcsim import cli, config
from smcsim.cli import main
from smcsim.config import load_config, preset_path
from smcsim.errors import (ControllabilityError, ParameterError, SimulationDiverged,
                           TuningWarning)
from smcsim.plants import RegulationPlant
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

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("content", [b'{"name": "\xff"}', b'{"name": ' + b"1" * 5000 + b"}"],
                             ids=["not-utf8", "5000-digit-int"])
    def test_undecodable_scenario_file_exits_2(self, tmp_path, capsys, content):
        # bytes that are not UTF-8, and an integer past Python's 4300-digit limit
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

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

    def test_bad_csv_precision_exits_2_before_loading(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SMCSIM_CSV_PRECISION", "abc")
        rc = main(["run", short_smooth(tmp_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "SMCSIM_CSV_PRECISION" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        # sample; the runner must report the blow-up before sgn(s) sees it.
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
        # dt/10**400 has no float value, and numpy refuses np.arange(10**300)
        # by its size limit before allocating anything.
        cfg = load_config(preset_path("regulation-smooth"))
        cfg["integration"].update(substeps=substeps, t_end=0.001)
        out = tmp_path / "out"
        assert main(["run", write_scenario(tmp_path, cfg), "--out", str(out)]) == 2
        assert "substeps" in capsys.readouterr().err
        assert not out.exists()

    def test_unallocatable_block_inputs_exit_2(self, tmp_path, capsys, monkeypatch):
        # Stands in for a block whose RK4 instants do not fit in memory.
        def refuse(self, t):
            raise MemoryError

        monkeypatch.setattr(RegulationPlant, "stage_inputs", refuse)
        out = tmp_path / "out"
        assert main(["run", "regulation-smooth", "--t-end", "0.01", "--out", str(out)]) == 2
        assert "cannot allocate the inputs of 101 rows" in capsys.readouterr().err
        assert not out.exists()


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
        path = short_smooth(tmp_path, t_end=0.0002, k=1e-200, rho=1e-200)
        with np.errstate(all="ignore"):
            assert main(["verify", path]) == 0
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


def compare_files(tmp_path, t_end=0.5):
    """The compare-smooth trio cut to t_end, and a fourth delta-adaptive
    scenario on the same plant with a slower adaptation."""
    files = []
    for preset in TRIO:
        cfg = load_config(preset_path(preset))
        cfg["integration"]["t_end"] = t_end
        files.append(write_scenario(tmp_path, cfg, preset + ".json"))
    cfg["name"] = "slow-adaptive"
    cfg["controller"] = dict(load_config(preset_path(TRIO[0]))["controller"], rho=3.0)
    files.append(write_scenario(tmp_path, cfg, "slow-adaptive.json"))
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


class TestForkedCompare:
    @pytest.mark.parametrize("n, w", [(2, 2), (4, 2), (4, 3)])
    def test_outputs_identical_to_one_process(self, tmp_path, monkeypatch, capsys, n, w):
        # At 4 scenarios and w = 3 one process runs two scenarios.
        files = compare_files(tmp_path)[:n]
        one = compare_on(monkeypatch, capsys, 1, files, tmp_path / "one")
        many = compare_on(monkeypatch, capsys, w, files, tmp_path / "many")
        assert one[0] == many[0] == 0
        assert one[1:3] == many[1:3]
        assert (one[3], many[3]) == (0, w - 1)
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

    def test_slow_process_runs_fewer(self, tmp_path, monkeypatch, capsys):
        # This process holds its first scenario until the child has run the
        # other three: the queue hands each to whichever process is free.
        parent, run = os.getpid(), cli.run_scenario
        done = tmp_path / "done"
        done.mkdir()

        def recording(sc):
            if os.getpid() == parent:
                wait_for(lambda: len(list(done.iterdir())) == 3)
            log = run(sc)
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
        # This process holds its first scenario until the child has ended, so
        # the child takes one of the first two.
        parent, run = os.getpid(), cli.run_scenario
        died = tmp_path / "died"

        def dying(sc):
            if os.getpid() != parent:
                died.touch()
                os._exit(7)
            wait_for(died.exists)
            return run(sc)

        monkeypatch.setattr(cli, "run_scenario", dying)
        files = compare_files(tmp_path, t_end=1.0)[:3]
        rc, out, err, _ = compare_on(monkeypatch, capsys, 2, files, tmp_path)
        assert (rc, out) == (2, "")
        assert err in [f"error: the process running input {i} of 3 ended without a result "
                       "(exit status 7)\n" for i in (1, 2)]
        assert_no_child_left()

    @pytest.mark.parametrize("w", [1, 2])
    def test_no_scenario_starts_after_a_failure(self, tmp_path, monkeypatch, capsys, w):
        # The failing scenario is first; at w = 2 the other process may have
        # taken the second before the failure, but no process takes a third.
        run = cli.run_scenario
        started = tmp_path / "started"
        started.mkdir()

        def failing(sc):
            (started / sc.name).touch()
            if sc.name == "fails":
                raise ControllabilityError("g vanished")
            return run(sc)

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
        # At w = 2 the two processes take inputs 1 and 2; the failure at
        # input 2 stops the queue, so input 3 is never started.
        run = cli.run_scenario

        def failing(sc):
            if sc.name == "diverges":
                raise SimulationDiverged(0.125, row=3, state=(1.0,), u=2.0, gain=3.0)
            if sc.name == "fails":
                raise ControllabilityError("g vanished")
            return run(sc)

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
