"""smcsim benchmark: three workloads, output checks, end-to-end or per-layer metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from ./src.
Each pass of a workload runs in a process of its own (perfbench/passrun.py),
so its wall time runs from spawn to exit and its peak RSS is its own. A run
is a series of rounds until --seconds are spent (at least two untraced,
one traced); the figures are medians over the rounds. See
perfbench/README.md.

--trace 0  rounds of (set-up probe, untraced pass); prints wall_s, setup_s,
           rows_per_s and peak_rss_mb.
--trace 1  rounds of (untraced pass, traced pass), order alternating, then
           one counting pass; prints the per-layer figures and
           trace.overhead_s.

Every pass's outputs are checked (perfbench/checks.py); a pass or sweep point
whose outputs fail a check counts as failed. The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import checks
import passrun
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
MIN_ROUNDS = 2
PASS_TIMEOUT_S = 90.0
# The passes are single-threaded; keep numpy's BLAS from starting a pool.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Pass:
    """One finished pass: its timings, peak RSS, stdout and result file."""

    def __init__(self, mode, pass_dir, wall_s, rss_mb, returncode, t_spawn):
        self.mode, self.dir, self.wall_s, self.rss_mb = mode, pass_dir, wall_s, rss_mb
        self.returncode = returncode
        with open(os.path.join(pass_dir, "stdout.txt")) as fh:
            self.stdout = fh.read()
        try:
            with open(os.path.join(pass_dir, "result.json")) as fh:
                self.result = json.load(fh)
        except (OSError, ValueError):
            self.result = {}
        self.setup_s = self.result.get("t_setup_end", float("nan")) - t_spawn
        self.startup_s = self.result.get("t_import", float("nan")) - t_spawn


class Bench:
    def __init__(self, inputs, out_dir):
        self.inputs = inputs
        self.out_dir = out_dir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **THREAD_ENV)
        self.count = 0

    def run_pass(self, mode):
        """Spawn one pass and wait for it; wall time is spawn to exit."""
        self.count += 1
        pass_dir = os.path.join(self.out_dir, f"{self.count:03d}-{mode}")
        os.makedirs(pass_dir)
        argv = [sys.executable, os.path.join(HERE, "passrun.py"), mode,
                os.path.join(pass_dir, "result.json"), self.inputs.kind,
                *self.inputs.argv(pass_dir)]
        with open(os.path.join(pass_dir, "stdout.txt"), "w") as out, \
                open(os.path.join(pass_dir, "stderr.txt"), "w") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall_s = time.monotonic() - t_spawn
        proc.returncode = os.waitstatus_to_exitcode(status)
        p = Pass(mode, pass_dir, wall_s, usage.ru_maxrss * 1024 / 1e6, proc.returncode, t_spawn)
        print(f"pass {os.path.basename(pass_dir)}: exit {p.returncode}, wall {wall_s:.3f} s, "
              f"set-up {p.setup_s:.3f} s, peak RSS {p.rss_mb:.1f} MB", file=sys.stderr)
        return p

    def rounds(self, seconds, modes, on_pass, min_rounds):
        """Rounds of passes until `seconds` are spent (at least min_rounds);
        a round is not started if the last one would overrun the budget.
        The order of the modes alternates from round to round."""
        done = []
        t0 = time.monotonic()
        last = 0.0
        while len(done) < min_rounds or time.monotonic() - t0 + last <= seconds:
            start = time.monotonic()
            order = modes if len(done) % 2 == 0 else modes[::-1]
            rnd = {}
            for mode in order:
                rnd[mode] = self.run_pass(mode)
                on_pass(rnd[mode])
            done.append(rnd)
            last = time.monotonic() - start
        return done


# ---------------------------------------------------------------------------
# Checks: which operations of which pass failed


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _exit_problem(p):
    if p.returncode != 0:
        return [f"pass {os.path.basename(p.dir)} exited {p.returncode}"]
    return []


class Checker:
    """Checks each pass as it finishes. compare's CSVs are hashed and then
    deleted, except the newest pass's, which get the full check."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.passes = []  # (pass, problems)
        self.csv_hashes = {}  # pass dir -> {scenario: sha256}
        self.report = []
        # False when the reference outputs could not be checked at all; the
        # operations are then counted failed, and nothing is known correct.
        self.verified = True

    def add(self, p):
        problems = _exit_problem(p)
        if not problems and self.inputs.name == "compare-smooth":
            try:
                self.csv_hashes[p.dir] = {sc: _sha256(os.path.join(p.dir, sc + ".csv"))
                                          for sc in self.inputs.scenarios}
            except OSError as exc:
                problems.append(f"missing CSV: {exc}")
            if self.passes:
                shutil.rmtree(self.passes[-1][0].dir, ignore_errors=True)
        elif not problems and self.inputs.name == "verify-square":
            (cfg,) = self.inputs.scenarios.values()
            problems = checks.check_verify(cfg, p.stdout)
        self.passes.append((p, problems))

    def finish(self, reference):
        """Full checks on the reference pass; every other pass must have
        produced the same logs. Returns the number of failed operations."""
        if self.inputs.name == "sweep-short":
            return self._finish_sweep(reference)
        if self.inputs.name == "compare-smooth":
            self._finish_compare(reference)
        failed = 0
        for p, problems in self.passes:
            if problems:
                failed += self.inputs.ops
                self.report.append(f"FAILED {os.path.basename(p.dir)}: " + "; ".join(problems))
        return failed

    def _finish_compare(self, reference):
        scenarios = self.inputs.scenarios
        ref_hash = self.csv_hashes.get(reference.dir)
        if ref_hash is None:
            self.verified = False
            ref_problems, logs = ["the checked pass left no CSVs"], None
        else:
            logs = {sc: checks.read_log_csv(os.path.join(reference.dir, sc + ".csv"))
                    for sc in scenarios}
            ref_problems = [f"{sc}: {msg}" for sc, cfg in scenarios.items()
                            for msg in checks.check_log(cfg, logs[sc])]
        for p, problems in self.passes:
            if problems:
                continue
            if self.csv_hashes[p.dir] != ref_hash:
                problems.append("CSVs differ from the checked pass's bytes")
            else:
                problems += ref_problems + checks.check_compare(scenarios, logs, p.stdout)

    def _finish_sweep(self, reference):
        ref = {rec["name"]: rec for rec in reference.result.get("points", [])}
        self.verified = reference.returncode == 0 and len(ref) == len(self.inputs.scenarios)
        point_problems = {}
        for name, cfg in self.inputs.scenarios.items():
            if not self.verified:
                point_problems[name] = ["the checked pass left no log of this point"]
                continue
            with np.load(os.path.join(reference.dir, name + ".npz")) as arrays:
                problems = checks.check_sweep_point(cfg, checks.log_from_arrays(arrays),
                                                    ref[name])
                if ref[name]["digest"] != passrun.digest(arrays):
                    problems.append("saved arrays differ from the digest the pass reported")
            point_problems[name] = problems
        self._sweep_table(ref)
        failed = 0
        for p, problems in self.passes:
            got = {rec["name"]: rec for rec in p.result.get("points", [])}
            for name in self.inputs.scenarios:
                op_problems = list(problems) or list(point_problems[name])
                rec = got.get(name)
                if rec is None or name not in ref or rec["digest"] != ref[name]["digest"]:
                    op_problems.append("log differs from the checked pass's log")
                elif rec != ref[name]:
                    op_problems.append("reported outcomes differ from the checked pass")
                if op_problems:
                    failed += 1
                    self.report.append(f"FAILED {os.path.basename(p.dir)} {name}: "
                                       + "; ".join(op_problems))
        return failed

    def _sweep_table(self, ref):
        cols = ("point", "phi", "rho", "k", "x0", "reach_s", "ultimate", "excursion",
                "decay_isolated")
        lines = ["  ".join(f"{c:>20}" if i == 0 else f"{c:>10}" for i, c in enumerate(cols))]
        for name, cfg in self.inputs.scenarios.items():
            rec = ref.get(name, {})
            ctl = cfg["controller"]
            decay = rec.get("decay")
            reach = rec.get("reach_time_to_band")
            row = [name, ctl["phi"], ctl["rho"], ctl["k"], cfg["x0"][0],
                   "-" if reach is None else f"{reach:.4g}",
                   checks.outcome(rec.get("ultimate")), checks.outcome(rec.get("excursion")),
                   "n/a" if decay is None else decay["isolated"]]
            lines.append("  ".join(f"{str(v):>20}" if i == 0 else f"{str(v):>10}"
                                   for i, v in enumerate(row)))
            for check in ("ultimate", "excursion"):
                if checks.outcome(rec.get(check)) == "FAIL":
                    self.report.append(
                        f"certificate FAIL: {check} bound on {name} with phi={ctl['phi']} "
                        f"rho={ctl['rho']} k={ctl['k']} x0={cfg['x0']}: {rec[check]}")
        self.report[:0] = ["sweep certificate outcomes (n/a: not applicable):"] + lines


# ---------------------------------------------------------------------------


def _median(values):
    return statistics.median(values)


def end_to_end(inputs, timed, probes):
    wall = _median([p.wall_s for p in timed])
    return {
        "wall_s": (wall, "s"),
        "setup_s": (_median([p.setup_s for p in timed + probes]), "s"),
        "rows_per_s": (inputs.rows_per_pass / wall, "rows/s"),
        "peak_rss_mb": (_median([p.rss_mb for p in timed]), "MB"),
    }


def per_layer(untraced, traced, counted):
    spans = counted.result.get("spans", [])
    figures = [tracing.layer_metrics(p.result.get("spans", []), spans, p.startup_s)
               for p in traced]
    out = {}
    for name in figures[0]:
        out[name] = _median([f[name] for f in figures])
    out["trace.overhead_s"] = (_median([p.wall_s for p in traced])
                               - _median([p.wall_s for p in untraced]))
    return {name: (value, tracing.UNITS[name]) for name, value in out.items()}


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "smcsim", "__init__.py")):
        print(f"error: no smcsim source under {os.path.join(ROOT, 'src')}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-{os.getpid()}")
    try:
        result = measure(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, out_dir):
    inputs = workloads.make_inputs(args.workload, ROOT, out_dir, args.seed, args.smoke)
    bench = Bench(inputs, out_dir)
    checker = Checker(inputs)

    # Warm-up, untimed: compiles the package's bytecode and fills the file
    # cache. On the sweep it is the pass whose saved logs get checked.
    sweep = inputs.kind == "sweep"
    warm = bench.run_pass("dump" if sweep else "setup")

    def check(p):
        if p.mode != "setup":
            checker.add(p)

    modes = ["time", "trace"] if args.trace else ["setup", "time"]
    rounds = bench.rounds(args.seconds, modes, check, 1 if args.trace else MIN_ROUNDS)
    timed = [r["time"] for r in rounds]
    if args.trace:
        counted = bench.run_pass("count")
        check(counted)
        traced = [r["trace"] for r in rounds]
        metrics = per_layer(timed, traced, counted)
        with open(os.path.join(OUT_ROOT, f"{args.workload}.trace.json"), "w") as fh:
            json.dump({os.path.basename(p.dir): p.result.get("spans", [])
                       for p in traced + [counted]}, fh)
    else:
        metrics = end_to_end(inputs, timed, [r["setup"] for r in rounds])

    failed = checker.finish(warm if sweep else checker.passes[-1][0])
    for line in checker.report:
        print(line)
    return {
        "correct": checker.verified,
        "attempted": len(checker.passes) * inputs.ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short horizons and few sweep points (self-test)")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
