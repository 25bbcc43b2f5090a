"""Independent checks of the program's outputs.

Every expected value here is computed from the scenario inputs with numpy,
math and the csv module, never with smcsim's own functions: the control
laws, the RK4 plant step, the surfaces, the closed-form certificate
quantities and the comparison metrics are written out again from their
published forms. Each check returns a list of problems; empty means pass.
"""

import csv
import math
import re

import numpy as np

EPS = np.finfo(float).eps
# A recomputation may differ from the logged value by a few roundings of the
# terms it sums (np.sin against math.sin, a different summation order); on
# numpy 2.4 all but the V column match bit for bit.
ULPS = 4
BAND_RATIO = math.sqrt(2.0) - 1.0


def _close(name, got, want, scale, problems):
    """Append a problem when |got - want| exceeds ULPS roundings of scale."""
    err = np.abs(np.asarray(got) - np.asarray(want))
    bad = np.flatnonzero(err > ULPS * EPS * np.maximum(scale, np.finfo(float).tiny))
    if bad.size:
        i = int(bad[0])
        problems.append(f"{name}: {bad.size} rows differ, first at row {i} "
                        f"(got {np.ravel(got)[i]!r}, expected {np.ravel(want)[i]!r})")


# ---------------------------------------------------------------------------
# Closed-form signals of the scenario files


def signal_values(spec, t):
    """Disturbance signal of a scenario file, evaluated on the array t."""
    kind = spec["kind"]
    if kind == "smooth_multi_sine":
        total = np.zeros_like(t)
        for a, w, p in zip(spec["amplitudes"], spec["frequencies"], spec["phases"]):
            total = total + a * np.sin(w * t + p)
        return total
    raise ValueError(f"no closed form for signal kind {kind!r}")


def reference(plant, t):
    """y_d, its rate and acceleration for the tracking plant."""
    amp, w = plant["reference"]["amplitude"], plant["reference"]["omega"]
    return amp * np.sin(w * t), amp * w * np.cos(w * t), -amp * w * w * np.sin(w * t)


def plant_deriv(cfg, x, t, u):
    """Right-hand side of the true plant: regulation x' = df(t) + u, tracking
    x1' = x2, x2' = x1*dx1*x2 + sin(x1*dx1) + d(t) + u with dx1 = 1 + mult(t)."""
    kind = cfg["plant"]["kind"]
    if kind == "regulation":
        return (signal_values(cfg["uncertainty"], t) + u,)
    if kind == "tracking":
        x1, x2 = x
        dx1 = 1.0 + signal_values(cfg["uncertainty"]["multiplicative"], t)
        add = signal_values(cfg["uncertainty"]["additive"], t)
        return (x2, x1 * dx1 * x2 + np.sin(x1 * dx1) + add + u)
    raise ValueError(f"unsupported plant kind {kind!r}")


def rk4_step(cfg, x, t, u, h):
    """One RK4 step of the plant for every row at once (u held)."""
    k1 = plant_deriv(cfg, x, t, u)
    k2 = plant_deriv(cfg, [xi + 0.5 * h * ki for xi, ki in zip(x, k1)], t + 0.5 * h, u)
    k3 = plant_deriv(cfg, [xi + 0.5 * h * ki for xi, ki in zip(x, k2)], t + 0.5 * h, u)
    k4 = plant_deriv(cfg, [xi + h * ki for xi, ki in zip(x, k3)], t + h, u)
    nxt = [xi + h * (a + 2.0 * b + 2.0 * c + d) / 6.0 for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
    scale = [np.abs(xi) + h * (np.abs(a) + 2 * np.abs(b) + 2 * np.abs(c) + np.abs(d))
             for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
    return nxt, scale


# ---------------------------------------------------------------------------
# Trajectory logs


def read_log_csv(path):
    """Columns of a trajectory CSV as a dict of float arrays."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {data.shape[1]} columns, header names {len(header)}")
    return {name: data[:, i] for i, name in enumerate(header)}


def log_from_arrays(arrays):
    """Column dict (t, x0.., s, u, ...) from the arrays of a saved sweep log."""
    cols = {name: arrays[name] for name in arrays if name != "x"}
    x = arrays["x"]
    for i in range(x.shape[1]):
        cols[f"x{i}"] = x[:, i]
    return cols


def check_log(cfg, cols):
    """Check one trajectory log against the scenario it came from.

    Rows and time grid; the logged initial state; the surface s, the matched
    disturbance delta_f and the control u from the plant and law; the gain
    recurrence and its exact bounds; each RK4 plant step from the logged
    state and u; and the Lyapunov columns.
    """
    problems = []
    integ = cfg["integration"]
    dt, t_end = integ["dt"], integ["t_end"]
    h = dt / integ.get("substeps", 1)
    if integ.get("substeps", 1) != 1:
        return [f"checks assume one RK4 substep per sample, got {integ['substeps']}"]
    n = int(round(t_end / dt)) + 1
    t = cols["t"]
    if len(t) != n:
        return [f"{len(t)} rows, expected {n} for t_end = {t_end} at dt = {dt}"]
    if not np.array_equal(t, np.arange(n) * dt):
        problems.append("t column is not the grid i*dt")
    n_states = len(cfg["x0"])
    x = [cols[f"x{i}"] for i in range(n_states)]
    if [xi[0] for xi in x] != list(cfg["x0"]):
        problems.append(f"initial state {[xi[0] for xi in x]} is not x0 = {cfg['x0']}")
    s, u, gain, rate = cols["s"], cols["u"], cols["gain"], cols["gain_rate"]
    plant, ctl = cfg["plant"], cfg["controller"]

    # Surface, nominal drift h_nom (g = 1 on both plants) and disturbance.
    if plant["kind"] == "regulation":
        s_ref, s_scale = x[0], np.abs(x[0])
        h_nom = np.zeros_like(t)
        df = signal_values(cfg["uncertainty"], t)
        df_scale = np.abs(df)
    else:
        lam = plant["lambda"]
        yd, yd_rate, yd_acc = reference(plant, t)
        x1, x2 = x
        e, e_rate = x1 - yd, x2 - yd_rate
        s_ref = e_rate + lam * e
        s_scale = np.abs(x2) + np.abs(yd_rate) + lam * (np.abs(x1) + np.abs(yd))
        h_nom = x1 * x2 + np.sin(x1) - yd_acc + lam * e_rate
        dx1 = 1.0 + signal_values(cfg["uncertainty"]["multiplicative"], t)
        add = signal_values(cfg["uncertainty"]["additive"], t)
        true = x1 * dx1 * x2 + np.sin(x1 * dx1)
        nominal = x1 * x2 + np.sin(x1)
        df = true - nominal + add
        df_scale = np.abs(true) + np.abs(nominal) + np.abs(add) + 1.0
    _close("s", s, s_ref, s_scale, problems)
    _close("delta_f", cols["delta_f"], df, df_scale, problems)

    sg = np.sign(s)
    if ctl["kind"] == "delta_adaptive":
        phi, rho, k = ctl["phi"], ctl["rho"], ctl["k"]
        u_ref = -(h_nom + k * s + gain * sg)
        u_scale = np.abs(h_nom) + k * np.abs(s) + np.abs(gain)
        rate_ref = (1.0 - 2.0 * phi * phi / (np.abs(s) + phi) ** 2) / rho
        _close("gain_rate", rate, rate_ref, 1.0 / rho, problems)
        nxt = gain[:-1] + dt * rate[:-1]
        _close("gain recurrence", gain[1:], np.maximum(nxt, 0.0),
               np.abs(gain[:-1]) + dt * np.abs(rate[:-1]), problems)
        if gain[0] != ctl["mu_hat0"]:
            problems.append(f"gain[0] = {gain[0]!r} is not mu_hat0 = {ctl['mu_hat0']!r}")
        if np.any(np.abs(rate) > 1.0 / rho):
            problems.append(f"|gain_rate| exceeds 1/rho = {1.0 / rho!r}: max {np.max(np.abs(rate))!r}")
        if np.any(gain < 0.0):
            problems.append(f"gain below 0: min {np.min(gain)!r}")
    elif ctl["kind"] == "plestan":
        K_bar, eps, kappa = ctl["K_bar"], ctl["epsilon"], ctl["kappa"]
        a = np.abs(s)
        u_ref = -gain * sg
        u_scale = np.abs(gain)
        rate_ref = np.where(gain > kappa, K_bar * a * np.sign(a - eps), 0.0)
        _close("gain_rate", rate, rate_ref, K_bar * a, problems)
        nxt = gain[:-1] + dt * rate[:-1]
        _close("gain recurrence", gain[1:], np.where(nxt > kappa, nxt, kappa),
               np.abs(gain[:-1]) + dt * np.abs(rate[:-1]), problems)
        if gain[0] != ctl["K0"]:
            problems.append(f"gain[0] = {gain[0]!r} is not K0 = {ctl['K0']!r}")
        if np.any(gain < kappa):
            problems.append(f"gain below the floor kappa = {kappa!r}: min {np.min(gain)!r}")
    else:
        return problems + [f"no check for controller kind {ctl['kind']!r}"]
    _close("u", u, u_ref, u_scale, problems)

    nxt, scale = rk4_step(cfg, [xi[:-1] for xi in x], t[:-1], u[:-1], h)
    for i, (xn, sc) in enumerate(zip(nxt, scale)):
        _close(f"RK4 step of x{i}", x[i][1:], xn, sc, problems)

    mu = cfg["uncertainty"].get("bound") if plant["kind"] != "tracking" else None
    if ctl["kind"] == "delta_adaptive" and mu is not None:
        a = np.abs(s)
        v_ref = a * (a - phi) / (a + phi) + 0.5 * rho * (mu - gain) ** 2
        _close("V", cols["V"], v_ref, a + 0.5 * rho * (mu + np.abs(gain)) ** 2, problems)
        _close("Vprime", cols["Vprime"], a + gain / k, a + np.abs(gain) / k, problems)
    elif np.any(cols["V"] != 0.0) or np.any(cols["Vprime"] != 0.0):
        problems.append("V and Vprime must be 0 without a delta-adaptive law and a declared bound")
    return problems


def chattering_index(u, dt):
    """Total variation of u per second over the final quarter of the log."""
    n = len(u)
    i0 = n - (int(round(0.25 * (n - 1))) + 1)
    return float(np.sum(np.abs(np.diff(u[i0:]))) / ((n - i0 - 1) * dt))


# ---------------------------------------------------------------------------
# compare-smooth


def _fmt_close(printed, value, digits=6):
    """Whether a value printed with `digits` significant digits matches."""
    return math.isclose(float(printed), value, rel_tol=10.0 ** (1 - digits), abs_tol=1e-300)


def check_compare(scenarios, logs, stdout):
    """Paper's claim recomputed from the CSVs, and the printed table.

    scenarios: name -> scenario dict; logs: name -> column dict.
    """
    problems = []
    table = {}
    best_line = None
    for line in stdout.splitlines():
        fields = line.split()
        if fields and fields[0] in scenarios:
            table[fields[0]] = fields[1:]
        elif line.startswith("* lowest chattering_index:"):
            best_line = line.split(":", 1)[1].strip()
    stats = {}
    for name, cfg in scenarios.items():
        cols = logs[name]
        stats[name] = (chattering_index(cols["u"], cfg["integration"]["dt"]),
                       float(np.max(cols["gain"])))
        row = table.get(name)
        if row is None or len(row) not in (5, 6):
            problems.append(f"table row for {name} missing or malformed: {row}")
            continue
        chat, max_gain = stats[name]
        if not _fmt_close(row[3], chat):
            problems.append(f"{name}: printed chattering_index {row[3]} != recomputed {chat:.6g}")
        if not _fmt_close(row[4], max_gain):
            problems.append(f"{name}: printed max_gain {row[4]} != recomputed {max_gain:.6g}")
    if problems:
        return problems
    best = min(stats, key=lambda name: stats[name][0])
    starred = [name for name, row in table.items() if len(row) == 6 and row[5] == "*"]
    if starred != [best] or best_line != best:
        problems.append(f"lowest chattering is {best}, but the table flags {starred} "
                        f"and names {best_line!r}")
    adaptive = [name for name, cfg in scenarios.items()
                if cfg["controller"]["kind"] == "delta_adaptive"]
    for name in adaptive:
        for other in scenarios:
            if other != name and not stats[name][0] < stats[other][0]:
                problems.append(f"claim: {name} chattering {stats[name][0]:.6g} not below "
                                f"{other} {stats[other][0]:.6g}")
            if other != name and not stats[name][1] < stats[other][1]:
                problems.append(f"claim: {name} max gain {stats[name][1]:.6g} not below "
                                f"{other} {stats[other][1]:.6g}")
    return problems


# ---------------------------------------------------------------------------
# verify-square


def feasible(m, mu, rho, phi):
    """The stiffness condition mu*sqrt(m) <= shape(eta + mu/sqrt(m))/rho."""
    if m <= 0.0:
        return False
    root = math.sqrt(m)
    eta = BAND_RATIO * phi
    return mu * root <= (1.0 - 2.0 * phi * phi / (eta + mu / root + phi) ** 2) / rho


def certificate(cfg):
    """eta, sigma, sigma/k, v0, the midpoint b and T, from the scenario alone."""
    ctl = cfg["controller"]
    phi, rho, k = ctl["phi"], ctl["rho"], ctl["k"]
    mu = cfg["uncertainty"]["bound"]
    eta = BAND_RATIO * phi
    sigma = mu + 1.0 / (k * rho)
    floor = sigma / k
    v0 = abs(cfg["x0"][0]) + ctl["mu_hat0"] / k
    b = 0.5 * (floor + v0)
    ratio = (v0 - floor) / (b - floor)
    T = math.log(ratio) / k if ratio > 0.0 else math.nan
    return {"mu": mu, "phi": phi, "rho": rho, "k": k, "eta": eta, "sigma": sigma,
            "floor": floor, "v0": v0, "b": b, "T": T,
            "applicable": v0 > floor and floor < b < v0}


def check_verify(cfg, stdout):
    """The printed certificate quantities against the preset's parameters."""
    problems = []
    c = certificate(cfg)
    found = {}
    patterns = {
        "eta": r"^eta = (\S+)$",
        "sigma": r"^sigma = (\S+)  T = (\S+)  b = (\S+)$",
        "m": r"^m = (\S+)  delta = (\S+)$",
        "ultimate": r"^ultimate-bound check: (pass|FAIL|not applicable)",
        "excursion": r"^excursion-bound check: (pass|FAIL)  max \|s\| after band entry = "
                     r"(\S+) vs 1\.05\*delta = (\S+)$",
        "decay": r"^decay check outside the band: (\d+)/(\d+) rows .*; (\d+) violations",
    }
    for line in stdout.splitlines():
        for key, pattern in patterns.items():
            mt = re.match(pattern, line)
            if mt:
                found[key] = mt.groups()
    missing = [key for key in patterns if key not in found]
    if missing:
        return [f"verify output lacks the {', '.join(missing)} line(s)"]

    if not _fmt_close(found["eta"][0], c["eta"], 9):
        problems.append(f"eta printed {found['eta'][0]}, expected {c['eta']:.9g}")
    for key, text in zip(("sigma", "T", "b"), found["sigma"]):
        want = c[key]
        if math.isnan(want) != (text == "nan") or (text != "nan" and not _fmt_close(text, want)):
            problems.append(f"{key} printed {text}, expected {want:.6g}")

    m_text, delta_text = found["m"]
    m = float(m_text)
    # The 9-digit print may round m up past the feasible supremum by half a
    # unit of its last digit.
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(m)) - 8)
    if not feasible(m - half_unit, c["mu"], c["rho"], c["phi"]):
        problems.append(f"printed m = {m_text} does not meet the feasibility inequality")
    if feasible(m * (1.0 + 1e-6), c["mu"], c["rho"], c["phi"]):
        problems.append(f"m*(1 + 1e-6) above printed m = {m_text} still meets the inequality")
    delta = math.sqrt((2.0 * c["eta"]) ** 2 + c["mu"] ** 2 / m) - c["eta"]
    if not _fmt_close(delta_text, delta, 8):
        problems.append(f"delta printed {delta_text}, expected {delta:.9g} from m")

    status = found["ultimate"][0]
    if (status == "not applicable") == c["applicable"]:
        problems.append(f"ultimate-bound check says {status!r}, but v0 = {c['v0']:.6g}, "
                        f"sigma/k = {c['floor']:.6g} make it "
                        f"{'applicable' if c['applicable'] else 'not applicable'}")
    ex_status, ex_max, ex_limit = found["excursion"]
    if ex_status != "pass" or not float(ex_max) <= float(ex_limit):
        problems.append(f"excursion check {ex_status}: max |s| {ex_max} vs {ex_limit}")
    if not _fmt_close(ex_limit, 1.05 * delta):
        problems.append(f"excursion limit printed {ex_limit}, expected 1.05*delta = {1.05 * delta:.6g}")
    return problems


# ---------------------------------------------------------------------------
# sweep-short


def check_sweep_point(cfg, cols, rec):
    """Log checks plus the point's reported metrics and certificate outcomes
    recomputed from its log."""
    problems = check_log(cfg, cols)
    if problems:
        return problems
    ctl = cfg["controller"]
    phi, rho, k = ctl["phi"], ctl["rho"], ctl["k"]
    s, gain, t = cols["s"], cols["gain"], cols["t"]
    dt = cfg["integration"]["dt"]
    chat = chattering_index(cols["u"], dt)
    if not math.isclose(rec["chattering_index"], chat, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"chattering_index {rec['chattering_index']!r} != recomputed {chat!r}")
    if rec["max_gain"] != float(np.max(gain)):
        problems.append(f"max_gain {rec['max_gain']!r} != recomputed {float(np.max(gain))!r}")
    if cfg["plant"]["kind"] != "regulation":
        return problems

    # check_log has matched s[0] and gain[0] to x0 and mu_hat0, so the
    # certificate from the scenario is the one at the logged initial level.
    c = certificate(cfg)
    b = c["b"]
    if not math.isclose(rec["b"], b, rel_tol=1e-12):
        problems.append(f"b {rec['b']!r} != midpoint {b!r}")
    after = t >= c["T"]
    vprime = np.abs(s) + gain / k
    holds = bool(np.all(vprime[after] <= b * 1.05)) if after.any() else None
    ub = rec["ultimate"]
    if ub["applicable"] != c["applicable"] or ub["holds"] != holds:
        problems.append(f"ultimate-bound outcome {ub} != recomputed applicable="
                        f"{c['applicable']} holds={holds}")

    m, delta = rec["m"], rec["delta"]
    if not (feasible(m, c["mu"], rho, phi) and not feasible(m * (1 + 1e-6) + 1e-9, c["mu"], rho, phi)):
        problems.append(f"m = {m!r} is not the largest feasible stiffness")
    eta = c["eta"]
    delta_ref = math.sqrt((2.0 * eta) ** 2 + c["mu"] ** 2 / m) - eta
    if not math.isclose(delta, delta_ref, rel_tol=1e-12):
        problems.append(f"delta {delta!r} != {delta_ref!r} from m")
    inside = np.flatnonzero(np.abs(s) < eta)
    ex = rec["excursion"]
    if inside.size == 0:
        if ex["applicable"]:
            problems.append("excursion check applied, but |s| never enters the band")
    else:
        peak = float(np.max(np.abs(s[inside[0]:])))
        if ex["max_excursion"] != peak or ex["holds"] != (peak < delta * 1.05):
            problems.append(f"excursion outcome {ex} != recomputed max {peak!r}, "
                            f"holds={peak < delta * 1.05}")
    return problems


def outcome(check):
    """pass / FAIL / n/a for a certificate record."""
    if check is None or check["holds"] is None or not check["applicable"]:
        return "n/a"
    return "pass" if check["holds"] else "FAIL"
