"""Command-line front end: run scenarios, compare controllers, verify bounds.

Exit codes: 0 success (including "not applicable" verification outcomes),
2 scenario validation failure, 3 numerical blow-up during integration.
"""

import argparse
from itertools import chain
import json
import math
import os
import sys
import warnings

from .config import (
    list_presets,
    load_config,
    load_scenario,
    resolve_scenario,
)
from .core import ultimate_band
from .errors import ConfigError, SimulationDiverged, SmcError
from . import sim
from .sim import (
    compute_metrics,
    lyapunov_trace,
    run_scenario,
    certificate_summary,
    verify_ultimate_bound,
    verify_band_excursion,
    write_csv,  # no command calls it; kept as cli.write_csv, which perfbench wraps
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _fmt(v):
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _metrics_lines(name, metrics):
    return [f"metrics for {name}:"] + [f"  {key:<22} {_fmt(value)}"
                                       for key, value in metrics.as_dict().items()]


def _output_dir(path):
    """Make the directory --out, or refuse one that is a file or lies under
    one (ConfigError, exit 2). The commands call this once, before their
    first run, so that a bad --out is refused before any integration.
    Returns the directories it made, deepest first, for run to remove after
    a failed run."""
    head = os.path.abspath(path)
    made = []
    while not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise ConfigError(f"--out {path}: {head} is not a directory")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path}: cannot create the directory ({exc})") from None
    return made


def _run_into(out_dir, scenario, phi, certify=False):
    """Run scenario with its CSV streamed to <name>.csv in out_dir, then
    write <name>.metrics.json and <name>.metrics.txt there; returns its
    compute_metrics. With certify (a delta-adaptive run on a plant with a
    declared bound), metrics.json also records the ultimate-bound check. A
    scenario that fails for any reason leaves none of the three files, and
    an OSError on one of them is a ConfigError. run_scenario and
    compute_metrics are read from cli's globals at each call, so that a
    wrapper set on them sees the calls."""
    paths = [os.path.join(out_dir, f"{scenario.name}.{ext}")
             for ext in ("csv", "metrics.json", "metrics.txt")]
    path = paths[0]
    try:
        log = run_scenario(scenario, csv_path=path)
        metrics = compute_metrics(log, phi)
        extra = {}
        if certify:
            bounds, _, r2 = _certify(scenario, log)
            if r2 is not None:
                # Outside the certificate's preconditions there is nothing to satisfy.
                metrics.ultimate_bound_satisfied = r2.holds if r2.applicable else None
                extra["ultimate_bound"] = {"applicable": r2.applicable, "holds": r2.holds,
                                           "T": r2.T, "b": r2.b, "sigma": bounds.sigma}
        payload = {"meta": log.meta, "metrics": metrics.as_dict(), **extra}
        texts = (json.dumps(payload, indent=2, sort_keys=True) + "\n",
                 "\n".join(_metrics_lines(scenario.name, metrics)) + "\n")
        for path, text in zip(paths[1:], texts):
            with open(path, "w") as fh:
                fh.write(text)
    except BaseException as exc:
        for p in paths:
            if os.path.isfile(p):
                os.remove(p)
        if isinstance(exc, OSError):
            raise ConfigError(f"--out {out_dir}: cannot write {path} ({exc})") from None
        raise
    return metrics


def _overrides(args):
    ov = {}
    if args.dt is not None:
        ov["dt"] = args.dt
    if getattr(args, "t_end", None) is not None:
        ov["t_end"] = args.t_end
    return ov


def _load(arg, overrides=None):
    """load_scenario on a file or preset name; each warning raised meanwhile
    is shown as one line, "warning: <path>: <section>: <text>"."""
    path = resolve_scenario(arg)
    shown = warnings.formatwarning
    warnings.formatwarning = (lambda message, category, *_: f"warning: {path}: "
                              f"{getattr(message, 'section', category.__name__)}: {message}\n")
    try:
        with warnings.catch_warnings():  # shows again what an earlier scenario showed
            return load_scenario(path, overrides=overrides)
    finally:
        warnings.formatwarning = shown


def _certify(scenario, log):
    """Certificate bounds of a delta-adaptive run and its ultimate-bound check
    (None when b is not finite: at k = 0, where the decay rate is undefined,
    or where a tiny k or k*rho makes sigma/k inf), with v0 = V'(0), which is
    0 at k = 0."""
    ctl, mu = scenario.controller, scenario.plant.true_bound
    v0 = float(sim.lyapunov_vprime(log.s[0], log.gain[0], ctl.k)) if ctl.k > 0.0 else 0.0
    bounds, ob = certificate_summary(mu, ctl.rho, ctl.phi, ctl.k, v0=v0)
    check = None
    if math.isfinite(bounds.b):  # NaN at k = 0
        check = verify_ultimate_bound(log, ctl.k, ctl.rho, mu, bounds.b)
    return bounds, ob, check


def cmd_run(args):
    scenario = _load(args.scenario, _overrides(args))
    ctl = scenario.controller
    certify = ctl.kind == "delta_adaptive" and scenario.plant.true_bound is not None
    made = _output_dir(args.out)
    try:
        metrics = _run_into(args.out, scenario, getattr(ctl, "phi", None), certify)
    except BaseException:
        for path in made:  # deepest first, each empty: a failed run leaves no file
            os.rmdir(path)
        raise
    print(f"wrote {os.path.join(args.out, scenario.name)}.csv")
    for line in _metrics_lines(scenario.name, metrics):
        print(line)
    return EXIT_OK


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _forked_map(fn, items):
    """[fn(x) for x in items] on W processes; raises the first exception in
    input order.

    With cpus the number of usable CPUs (1 without os.fork), W is
    len(items) when there are fewer than 2*cpus items, so that every CPU
    stays busy to the end and none time-shares more than two; else W is
    cpus. This process and W - 1 forked children take the items in input
    order from one queue, each the next untaken one whenever it is free, so
    a process on a slow CPU runs fewer of them. This process takes the
    first ticket itself and fills the queue only after the last fork, so
    the first item started is always its own. A process that raises takes
    the rest off the queue: the others finish the item in hand and start no
    other. The children inherit fn and items through fork, so neither needs
    to pickle; a child sends the index of each item it takes, then its
    result (or exception), through a pipe, and leaves by os._exit. Every
    child is reaped before this returns or raises.
    """
    import pickle
    import signal

    n = len(items)
    cpus = _usable_cpus() if hasattr(os, "fork") else 1
    w = n if n < 2 * cpus else cpus
    outcomes = [None] * n
    # The queue: a pipe of 4-byte tickets, each the first of `per` items. A
    # 4-byte read takes one whole ticket, so each goes to one process. At
    # most 1024 tickets (4 KiB): the one write is atomic and never waits for
    # a reader. A process reads the queue as empty only once no process
    # holds its write end.
    per = n // 1024 + 1
    queue, queue_wr = os.pipe()

    def tickets():
        while ticket := os.read(queue, 4):
            yield int.from_bytes(ticket, "little")

    def run(ks, started, finished):
        for k in ks:
            for i in range(k, min(k + per, n)):
                started(i)
                try:
                    out = fn(items[i])
                except Exception as exc:
                    while os.read(queue, 4096):
                        pass
                    finished(i, exc)
                    return
                finished(i, out)

    children = []  # (pid, read end), not yet reaped
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for _ in range(1, w):
            r, wr = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: never returns from here
                status = 1
                try:
                    os.close(r)
                    os.close(queue_wr)
                    with os.fdopen(wr, "wb") as pipe:
                        def send(obj):
                            pipe.write(pickle.dumps(obj))
                            pipe.flush()
                        run(tickets(), send, lambda i, out: send(out))
                    sys.stderr.flush()
                    status = 0
                finally:
                    os._exit(status)
            os.close(wr)
            children.append((pid, os.fdopen(r, "rb")))
        os.write(queue_wr, b"".join(k.to_bytes(4, "little") for k in range(per, n, per)))
        os.close(queue_wr)
        queue_wr = None
        run(chain([0], tickets()), lambda i: None, outcomes.__setitem__)
        while children:
            pid, pipe = children[0]
            lost = None
            while True:
                try:
                    i = pickle.load(pipe)
                except Exception:  # the end of the pipe: no item in hand
                    break
                try:
                    outcomes[i] = pickle.load(pipe)
                except Exception:  # the child ended while running item i
                    lost = i
                    break
            pipe.close()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if lost is not None:
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                outcomes[lost] = SmcError(f"the process running input {lost + 1} of {n} "
                                          f"ended without a result ({how})")
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        if queue_wr is not None:
            os.close(queue_wr)
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    for out in outcomes:
        if isinstance(out, BaseException):
            raise out
    return outcomes


def cmd_compare(args):
    if len(args.scenarios) < 2:
        raise ConfigError("compare needs at least two scenario files")
    scenarios = [_load(p) for p in args.scenarios]
    names = [sc.name for sc in scenarios]
    for name in names:
        if names.count(name) > 1:  # their processes would write the same files
            raise ConfigError(f"compare needs distinct scenario names; {name!r} is used "
                              f"{names.count(name)} times")

    shared = None
    for sc in scenarios:
        key = {k: sc.config[k] for k in ("plant", "uncertainty", "x0", "integration")}
        if shared is None:
            shared = key
        elif key != shared:
            raise ConfigError(
                f"scenario {sc.name!r} does not share plant/uncertainty/x0/integration "
                "with the first scenario"
            )

    # The first delta-adaptive phi, else the first phi.
    ctls = sorted((sc.controller for sc in scenarios), key=lambda c: c.kind != "delta_adaptive")
    phi = next((c.phi for c in ctls if hasattr(c, "phi")), None)
    _output_dir(args.out)

    def run_one(sc):
        # The log, of the columns the metrics read, is freed before this
        # process runs its next scenario.
        return sc.name, _run_into(args.out, sc, phi)

    rows = _forked_map(run_one, scenarios)
    fields = ("reach_time_to_band", "steady_band_mean", "steady_band_max",
              "chattering_index", "max_gain")
    width = max(len(name) for name, _ in rows)
    header = "scenario".ljust(width) + "".join(f"  {f:>18}" for f in fields)
    print(header)
    best = min(rows, key=lambda r: r[1].chattering_index)[0]
    for name, metrics in rows:
        d = metrics.as_dict()
        mark = " *" if name == best else ""
        print(name.ljust(width) + "".join(f"  {_fmt(d[f]):>18}" for f in fields) + mark)
    print(f"* lowest chattering_index: {best}")
    return EXIT_OK


def cmd_verify(args):
    scenario = _load(args.scenario, _overrides(args))
    ctl = scenario.controller
    if ctl.kind != "delta_adaptive":
        raise ConfigError("verify requires a scenario using the delta_adaptive controller")
    mu = scenario.plant.true_bound
    if mu is not None:  # before any output: the decay check needs 3 rows
        sim.check_trace_rows(sim.row_count(scenario.settings.t_end, scenario.settings.dt))
    eta = f"eta = {ultimate_band(ctl.phi):.9g}"
    if mu is None:
        print(eta)
        print("bound checks: not applicable (plant has no declared uncertainty bound)")
        return EXIT_OK

    # Printed once the run and its checks have finished: a failed run prints nothing.
    report = [eta]
    # The columns the checks read; the log holds the others one span at a time.
    log = run_scenario(scenario, keep=("t", "s", "gain"))
    bounds, ob, r2 = _certify(scenario, log)
    factor = f"{1.0 + sim.CERTIFICATE_TOL:g}"  # each check's limit is this times b or delta
    report.append(f"sigma = {_fmt(bounds.sigma)}  T = {_fmt(bounds.T)}  b = {_fmt(bounds.b)}")
    if ob.feasible:
        report.append(f"m = {ob.m:.9g}  delta = {ob.delta:.9g}")
    else:
        report.append("m: infeasible for these mu, rho, phi (no excursion bound certified)")

    if r2 is not None:
        status = "not applicable" if not r2.applicable else ("pass" if r2.holds else "FAIL")
        detail = f"max V' after T = {_fmt(r2.max_vprime_after)} vs {factor}*b = {_fmt(r2.limit)}"
        if r2.reason:
            detail += f" ({r2.reason})"
        report.append(f"ultimate-bound check: {status}  {detail}")
    elif ctl.k == 0.0:
        report.append("ultimate-bound check: not applicable (k = 0, decay rate undefined)")
    else:
        report.append(f"ultimate-bound check: not applicable (sigma = {_fmt(bounds.sigma)}, "
                      f"b = {_fmt(bounds.b)}: not finite at k*rho = {_fmt(ctl.k * ctl.rho)})")

    r3 = verify_band_excursion(log, ob.m, ob.delta, ctl.phi)
    if not r3.applicable:
        report.append(f"excursion-bound check: not applicable ({r3.reason})")
    else:
        status = "pass" if r3.holds else "FAIL"
        report.append(f"excursion-bound check: {status}  max |s| after band entry = "
                      f"{r3.max_excursion:.6g} vs {factor}*delta = {r3.limit:.6g}")

    trace = lyapunov_trace(log, mu, ctl.rho, ctl.phi, ctl.k)
    checked = int(trace.checked.sum())
    report.append(f"decay check outside the band: {checked - len(trace.violations)}/{checked} "
                  f"rows within certificate (+slack); {len(trace.isolated_violations)} "
                  "violations away from band crossings")
    print("\n".join(report))
    return EXIT_OK


def cmd_presets(args):
    if args.action != "list":
        raise ConfigError(f"unknown presets action {args.action!r} (try: list)")
    for name in list_presets():
        raw = load_config(resolve_scenario(name))
        ctl = raw.get("controller", {}).get("kind", "?")
        plant = raw.get("plant", {}).get("kind", "?")
        print(f"{name:<34} plant={plant:<11} controller={ctl}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="smcsim",
        description="Sliding-mode control scenarios: run, compare, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario and write CSV + metrics")
    p_run.add_argument("scenario", help="scenario file or preset name")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--dt", type=float, default=None, help="override sample period")
    p_run.add_argument("--t-end", dest="t_end", type=float, default=None,
                       help="override horizon")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several scenarios on one shared setup")
    p_cmp.add_argument("scenarios", nargs="+", help="scenario files or preset names")
    p_cmp.add_argument("--out", default=".", help="output directory")
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = sub.add_parser("verify", help="check the closed-form bounds on a scenario")
    p_ver.add_argument("scenario", help="scenario file or preset name")
    p_ver.add_argument("--dt", type=float, default=None, help="override sample period")
    p_ver.add_argument("--t-end", dest="t_end", type=float, default=None,
                       help="override horizon")
    p_ver.set_defaults(func=cmd_verify)

    p_pre = sub.add_parser("presets", help="preset utilities")
    p_pre.add_argument("action", nargs="?", default="list")
    p_pre.set_defaults(func=cmd_presets)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SimulationDiverged as exc:
        print(f"numerical blow-up: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except SmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
