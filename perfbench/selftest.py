"""Self-test of the benchmark: smoke runs of every workload, and proof that
each output check rejects a corrupted output.

usage: python3 perfbench/selftest.py     (from the root of a source checkout)

The smoke runs use --smoke: 2-s horizons and two sweep points per base, so
the whole test takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

import numpy as np

import checks
import run
import workloads

SCRATCH = os.path.join(run.OUT_ROOT, "selftest")


def _bench_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _smoke_pass(workload, mode="time"):
    """Inputs and one pass of a workload at the smoke horizon."""
    out_dir = os.path.join(SCRATCH, workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    inputs = workloads.make_inputs(workload, run.ROOT, out_dir, seed=7, smoke=True)
    p = run.Bench(inputs, out_dir).run_pass(mode)
    if p.returncode != 0:
        raise AssertionError(f"{workload} pass exited {p.returncode}")
    return inputs, p


class SmokeRuns(unittest.TestCase):
    """Every workload runs end to end, untraced and traced, with no failed
    operation and exactly the metrics BENCHMARK.json declares."""

    def test_workloads(self):
        spec = _bench_json()
        for w in spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    res = _run_bench(run.ROOT, "--workload", w["name"], "--seed", "3",
                                     "--seconds", "1", "--trace", str(trace), "--smoke")
                    self.assertEqual(res.returncode, 0, res.stderr)
                    out = json.loads(res.stdout.splitlines()[-1])
                    self.assertEqual(sorted(out), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(out["correct"])
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(out["failed"], 0, res.stdout)
                    self.assertEqual(sorted(out["metrics"]), sorted(m["name"] for m in spec[key]))
                    units = {m["name"]: m["unit"] for m in spec[key]}
                    for name, value in out["metrics"].items():
                        self.assertEqual(value["unit"], units[name], name)

    def test_refuses_without_source(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.join(run.ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        res = _run_bench(bare, "--workload", "verify-square", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        self.assertNotEqual(res.returncode, 0)
        self.assertFalse(res.stdout.strip())
        shutil.rmtree(bare)


class CompareChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.inputs, cls.p = _smoke_pass("compare-smooth")
        cls.paths = {sc: os.path.join(cls.p.dir, sc + ".csv") for sc in cls.inputs.scenarios}
        cls.logs = {sc: checks.read_log_csv(path) for sc, path in cls.paths.items()}

    def _log_problems(self, sc, cols):
        return checks.check_log(self.inputs.scenarios[sc], cols)

    def test_clean_output_passes(self):
        for sc in self.inputs.scenarios:
            self.assertEqual(self._log_problems(sc, self.logs[sc]), [])
        self.assertEqual(checks.check_compare(self.inputs.scenarios, self.logs, self.p.stdout), [])

    def test_nudged_gain_is_rejected(self):
        for sc in self.inputs.scenarios:
            cols = {k: v.copy() for k, v in self.logs[sc].items()}
            cols["gain"][len(cols["gain"]) // 2] *= 1.0 + 1e-9
            self.assertTrue(self._log_problems(sc, cols), sc)

    def test_dropped_row_is_rejected(self):
        sc = "compare-smooth-adaptive"
        with open(self.paths[sc]) as fh:
            lines = fh.readlines()
        path = os.path.join(SCRATCH, "dropped.csv")
        with open(path, "w") as fh:
            fh.writelines(lines[:500] + lines[501:])
        self.assertTrue(self._log_problems(sc, checks.read_log_csv(path)))

    def test_state_off_the_rk4_step_is_rejected(self):
        sc = "compare-smooth-plestan-fast"
        cols = {k: v.copy() for k, v in self.logs[sc].items()}
        cols["x0"][1000] += 1e-12
        cols["s"][1000] = cols["x0"][1000]
        problems = self._log_problems(sc, cols)
        self.assertTrue(any("RK4" in msg for msg in problems), problems)

    def test_control_off_the_law_is_rejected(self):
        sc = "compare-smooth-plestan-slow"
        cols = {k: v.copy() for k, v in self.logs[sc].items()}
        cols["u"][5] = -cols["u"][5]
        self.assertTrue(self._log_problems(sc, cols))

    def test_table_disagreeing_with_csvs_is_rejected(self):
        lines = [ln[:-2] if ln.endswith(" *") else ln for ln in self.p.stdout.splitlines()]
        moved_star = [ln + " *" if ln.startswith("compare-smooth-plestan-slow") else ln
                      for ln in lines]
        self.assertTrue(checks.check_compare(self.inputs.scenarios, self.logs,
                                             "\n".join(moved_star)))
        chat = f"{checks.chattering_index(self.logs['compare-smooth-adaptive']['u'], 1e-4):.6g}"
        self.assertIn(chat, self.p.stdout)
        altered = self.p.stdout.replace(chat, "0.1", 1)
        self.assertTrue(checks.check_compare(self.inputs.scenarios, self.logs, altered))

    def test_differing_bytes_between_passes_are_rejected(self):
        dirs = [os.path.join(SCRATCH, name) for name in ("first", "second")]
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
            shutil.copytree(self.p.dir, d)
        with open(os.path.join(dirs[0], "compare-smooth-adaptive.csv"), "ab") as fh:
            fh.write(b"\n")
        first, second = (run.Pass("time", d, 1.0, 1.0, 0, 0.0) for d in dirs)
        checker = run.Checker(self.inputs)
        checker.add(first)
        checker.add(second)
        self.assertEqual(checker.finish(second), self.inputs.ops)
        self.assertTrue(any("differ" in line for line in checker.report), checker.report)


class VerifyChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.inputs, cls.p = _smoke_pass("verify-square")
        (cls.cfg,) = cls.inputs.scenarios.values()

    def test_clean_output_passes(self):
        self.assertEqual(checks.check_verify(self.cfg, self.p.stdout), [])

    def test_corrupted_lines_are_rejected(self):
        lines = self.p.stdout.splitlines()

        def replaced(prefix, fn):
            return "\n".join(fn(ln) if ln.startswith(prefix) else ln for ln in lines)

        cases = {
            "eta": replaced("eta =", lambda ln: ln[:-1] + ("1" if ln[-1] != "1" else "2")),
            "sigma": replaced("sigma =", lambda ln: ln.replace("sigma = 2.", "sigma = 3.")),
            "m above the supremum": replaced(
                "m =", lambda ln: "m = %.9g  delta = %s" % (float(ln.split()[2]) * 1.001,
                                                            ln.split()[-1])),
            "m far below the supremum": replaced(
                "m =", lambda ln: "m = %.9g  delta = %s" % (float(ln.split()[2]) * 0.9,
                                                            ln.split()[-1])),
            "excursion fail": replaced("excursion-bound check: pass",
                                       lambda ln: ln.replace("pass", "FAIL")),
            "ultimate pass": replaced("ultimate-bound check: not applicable",
                                      lambda ln: ln.replace("not applicable", "pass")),
            "missing line": "\n".join(ln for ln in lines if not ln.startswith("decay")),
        }
        for name, text in cases.items():
            with self.subTest(case=name):
                self.assertTrue(checks.check_verify(self.cfg, text))


class SweepChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.inputs, cls.p = _smoke_pass("sweep-short", mode="dump")
        cls.records = {rec["name"]: rec for rec in cls.p.result["points"]}

    def _point(self, name):
        with np.load(os.path.join(self.p.dir, name + ".npz")) as arrays:
            return checks.log_from_arrays({k: arrays[k].copy() for k in arrays.files})

    def _problems(self, name, cols, rec=None):
        return checks.check_sweep_point(self.inputs.scenarios[name], cols,
                                        rec or self.records[name])

    def test_clean_output_passes(self):
        for name in self.inputs.scenarios:
            self.assertEqual(self._problems(name, self._point(name)), [], name)

    def test_nudged_gain_is_rejected(self):
        for name in self.inputs.scenarios:
            cols = self._point(name)
            cols["gain"][len(cols["gain"]) // 3] += 1e-9
            self.assertTrue(self._problems(name, cols), name)

    def test_tracking_surface_off_the_reference_is_rejected(self):
        name = "tracking-0"
        cols = self._point(name)
        cols["s"][100] += 1e-9
        problems = self._problems(name, cols)
        self.assertTrue(any(msg.startswith("s:") for msg in problems), problems)

    def test_wrong_certificate_outcomes_are_rejected(self):
        name = "regulation-smooth-0"
        cols = self._point(name)
        for field, change in (("ultimate", {"holds": False}), ("excursion", {"holds": False}),
                              ("m", None)):
            rec = json.loads(json.dumps(self.records[name]))
            if change is None:
                rec["m"] *= 0.99
            else:
                rec[field].update(change)
            with self.subTest(field=field):
                self.assertTrue(self._problems(name, cols, rec))


if __name__ == "__main__":
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
