"""One pass of a workload, in a process of its own.

usage: passrun.py MODE RESULT KIND ARG...

MODE    time   run the pass untraced
        setup  stop at the first integration step (set-up probe)
        trace  run the pass with the per-layer tracer installed
        count  as trace, and count every signal evaluation and plant
               derivative call as well
        dump   run untraced and also save every sweep log as .npz for the checks
RESULT  JSON file this process writes before it exits: monotonic clock
        readings (the parent reads the same system-wide clock), the sweep's
        per-point outcomes and, when traced, the spans
KIND    cli    ARGs are a smcsim command line, run through smcsim.cli.main
        sweep  ARG is a JSON list of scenario dicts, run by a library-level loop

The only instrumentation of an untraced pass is one clock reading at the
first call of run_scenario.
"""

import time

T_START = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

LOG_ARRAYS = ("t", "x", "s", "u", "gain", "gain_rate", "delta_f", "V", "Vprime")


class SetupDone(Exception):
    """Raised at the first integration step of a set-up probe."""


def digest(arrays):
    """sha256 over the bytes of a trajectory log's arrays, by name."""
    h = hashlib.sha256()
    for name in LOG_ARRAYS:
        h.update(arrays[name].tobytes())
    return h.hexdigest()


def mark_first_call(namespace, name, result, stop):
    """Record the clock at the first call of namespace.name (the end of
    set-up); a set-up probe stops there."""
    fn = getattr(namespace, name)

    def first(*args, **kwargs):
        result["t_setup_end"] = time.monotonic()
        setattr(namespace, name, fn)
        if stop:
            raise SetupDone
        return fn(*args, **kwargs)

    setattr(namespace, name, first)


def run_sweep(api, points, dump_dir, result):
    """Build every point, then run each with the post-processing that
    `smcsim verify` applies, recording outcomes and a digest of the log."""
    scenarios = [api.build_scenario(cfg) for cfg in points]
    records = []
    for cfg, scenario in zip(points, scenarios):
        log = api.run_scenario(scenario)
        ctl = cfg["controller"]
        phi, rho, k = ctl["phi"], ctl["rho"], ctl["k"]
        metrics = api.compute_metrics(log, phi)
        rec = {"name": cfg["name"], "rows": len(log.t), "digest": digest(vars(log)),
               "chattering_index": metrics.chattering_index, "max_gain": metrics.max_gain,
               "reach_time_to_band": metrics.reach_time_to_band}
        mu = scenario.plant.true_bound
        if mu is not None:
            v0 = float(abs(log.s[0]) + log.gain[0] / k)
            bounds, ob = api.certificate_summary(mu, rho, phi, k, v0=v0)
            ub = api.verify_ultimate_bound(log, k, rho, mu, bounds.b)
            ex = api.verify_band_excursion(log, ob.m, ob.delta, phi)
            lt = api.lyapunov_trace(log, mu, rho, phi, k)
            rec.update({
                "mu": mu, "sigma": bounds.sigma, "T": bounds.T, "b": bounds.b,
                "m": ob.m, "delta": ob.delta,
                "ultimate": {"applicable": ub.applicable, "holds": ub.holds,
                             "max_vprime_after": ub.max_vprime_after},
                "excursion": {"applicable": ex.applicable, "holds": ex.holds,
                              "max_excursion": ex.max_excursion},
                "decay": {"checked": int(lt.checked.sum()), "violations": len(lt.violations),
                          "isolated": len(lt.isolated_violations)},
            })
        if dump_dir:
            import numpy as np
            np.savez(os.path.join(dump_dir, cfg["name"] + ".npz"),
                     **{name: getattr(log, name) for name in LOG_ARRAYS})
        records.append(rec)
    result["points"] = records
    return 0


def main(argv):
    mode, result_path, kind, *args = argv
    result = {"t_start": T_START}
    tracer = None
    if mode in ("trace", "count"):
        import tracing
        tracer = tracing.Tracer()
    import smcsim
    result["t_import"] = time.monotonic()
    from smcsim import cli, config, core, sim

    if tracer:
        tracer.instrument_config(config, count=mode == "count")
        tracer.wrap_names(config, ["verify_signal_bound"])
        tracer.wrap_names(core, ["overshoot_bound"])

    try:
        if kind == "cli":
            if tracer:
                tracer.wrap_names(cli, ["resolve_scenario", "load_scenario", "run_scenario",
                                        "write_csv", "compute_metrics", "lyapunov_trace",
                                        "certificate_summary", "verify_ultimate_bound",
                                        "verify_band_excursion", "main"],
                                  {"run_scenario": tracing.log_attrs,
                                   "write_csv": tracing.csv_attrs})
            mark_first_call(cli, "run_scenario", result, stop=mode == "setup")
            rc = cli.main(args)
        else:
            api = types.SimpleNamespace(
                build_scenario=config.build_scenario, run_scenario=sim.run_scenario,
                compute_metrics=sim.compute_metrics, certificate_summary=sim.certificate_summary,
                verify_ultimate_bound=sim.verify_ultimate_bound,
                verify_band_excursion=sim.verify_band_excursion,
                lyapunov_trace=sim.lyapunov_trace)
            if tracer:
                tracer.wrap_names(api, list(vars(api)), {"run_scenario": tracing.log_attrs})
            mark_first_call(api, "run_scenario", result, stop=mode == "setup")
            with open(args[0]) as fh:
                points = json.load(fh)
            dump_dir = os.path.dirname(result_path) if mode == "dump" else None
            rc = run_sweep(api, points, dump_dir, result)
    except SetupDone:
        rc = 0
    if tracer:
        result["spans"] = tracer.spans
    sys.stdout.flush()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
