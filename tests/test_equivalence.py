"""The block-vectorized runner against a plain per-row reference loop.

The reference integrates through the per-time methods (``controller.step``,
``plant.sample`` and ``plant.deriv``, each fed ``plant.inputs`` at one
instant) with a tuple RK4, evaluating every signal at each instant as it
goes; ``run_scenario`` must reproduce every log column bit for bit, also at
horizons whose last row, which the runner steps through ``sample`` itself,
is alone in its block or ends a full one. Each plant's ``run_rows``, which
writes the surface and the RK4 stages inline, must also log what ``sample``
gives and step as a generic RK4 step over its ``rhs``, and step no row
beyond the block's first m. The signal tests compare each vectorized
``values(t)`` with its closed form written with the math module, on the
sample and RK4 instants the runner uses.
"""

import math

import numpy as np
import pytest

from smcsim.controllers import (
    BoundaryLayerSMC,
    ClassicalSMC,
    DeltaAdaptiveSMC,
    PlestanAdaptiveSMC,
    UtkinAdaptiveSMC,
)
from smcsim.plants import (
    BLOCK,
    LinearPlant,
    MultiSineSignal,
    RegulationPlant,
    RowLog,
    SineReference,
    SquareSignal,
    TableSignal,
    TrackingPlant,
)
from smcsim.sim import IntegrationSettings, Scenario, row_count, run_scenario

LOG_COLUMNS = ("t", "x", "s", "u", "gain", "gain_rate", "delta_f", "V", "Vprime")

# Long enough to cross block boundaries of the runner. At 2.048 the run's
# last row is alone in its block (m = 0); at 2.047 it ends a full block.
DT, T_END = 1e-3, 2.5
LAST_ROW_HORIZONS = (2.048, 2.047)
assert row_count(T_END, DT) > BLOCK
assert [row_count(t_end, DT) for t_end in LAST_ROW_HORIZONS] == [2 * BLOCK + 1, 2 * BLOCK]


def _rk4(f, x, t, u, h):
    k1 = f(x, t, u)
    th = t + 0.5 * h
    x2 = tuple(xi + 0.5 * h * ki for xi, ki in zip(x, k1))
    k2 = f(x2, th, u)
    x3 = tuple(xi + 0.5 * h * ki for xi, ki in zip(x, k2))
    k3 = f(x3, th, u)
    x4 = tuple(xi + h * ki for xi, ki in zip(x, k3))
    k4 = f(x4, t + h, u)
    return tuple(
        xi + h * (a + 2.0 * b + 2.0 * c + d) / 6.0
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    )


def reference_run(scenario):
    plant, controller = scenario.plant, scenario.controller
    controller.reset()
    dt = scenario.settings.dt
    n = row_count(scenario.settings.t_end, dt)
    lyap = None
    if isinstance(controller, DeltaAdaptiveSMC) and plant.true_bound is not None:
        lyap = (controller.phi, controller.rho, controller.k, plant.true_bound)
    out = {name: np.zeros(n) for name in LOG_COLUMNS}
    out["x"] = np.zeros((n, plant.n_states))
    x = scenario.x0
    for i in range(n):
        t = i * dt
        x1, x2 = x if len(x) > 1 else (x[0], 0.0)
        s, hdrift, g, delta_f = plant.sample(x1, x2, plant.inputs([t])[0])
        u, gain, rate = controller.step(s, hdrift, g, dt)
        out["t"][i], out["x"][i] = t, x
        out["s"][i], out["u"][i], out["gain"][i], out["gain_rate"][i] = s, u, gain, rate
        out["delta_f"][i] = delta_f
        if lyap is not None:
            phi, rho, k, mu = lyap
            a = abs(s)
            e = mu - gain
            out["V"][i] = a * (a - phi) / (a + phi) + 0.5 * rho * e * e
            if k > 0.0:
                out["Vprime"][i] = a + gain / k
        if i + 1 < n:
            x = _rk4(plant.deriv, x, t, u, dt)
    return out


def table_signal():
    times = [0.0, 0.7, 1.3, 2.9, 3.5, 5.0]
    return TableSignal(times, [0.4, -0.3, 0.5, 0.5, -0.6, 0.2], 0.6)


PLANTS = {
    "regulation": lambda: RegulationPlant(SquareSignal(0.25, [(0.0, 1.0), (2.0, 0.5)], 1.0)),
    "linear": lambda: LinearPlant(0.5, 2.0, table_signal()),
    "tracking": lambda: TrackingPlant(MultiSineSignal([0.1], [0.7], [0.3], 0.1),
                                      MultiSineSignal([1.0, 0.3], [0.25, 1.1], [0.0, 0.5], 1.3),
                                      SineReference(0.5, 1.2), 4.0),
}

CONTROLLERS = {
    "classical": lambda: ClassicalSMC(3.0),
    "boundary_layer": lambda: BoundaryLayerSMC(3.0, 0.05),
    "utkin": lambda: UtkinAdaptiveSMC(tau=0.01, alpha=0.95, nu=1.0, M=40.0,
                                      K_plus=15.0, epsilon=0.01, K0=1.0),
    "plestan": lambda: PlestanAdaptiveSMC(K_bar=50.0, epsilon=0.01, kappa=0.01, K0=0.5),
    "delta_adaptive": lambda: DeltaAdaptiveSMC(phi=0.05, rho=0.5, k=3.0, mu_hat0=0.1),
}

X0 = {"regulation": (0.8,), "linear": (-0.6,), "tracking": (0.3, -0.2)}


def assert_same_log(log, ref):
    for name in LOG_COLUMNS:
        got = getattr(log, name)
        label = f"{log.meta['scenario']}: {name}"
        assert got.shape == ref[name].shape, label
        assert np.array_equal(got, ref[name]), label


def runner_cases():
    """(plant, controller, t_end) at each horizon, with the id
    plant-controller at T_END and plant-controller-t_end=<t_end> at the
    others."""
    for t_end in (T_END, *LAST_ROW_HORIZONS):
        for plant in sorted(PLANTS):
            for controller in sorted(CONTROLLERS):
                suffix = "" if t_end == T_END else f"-t_end={t_end}"
                yield pytest.param(plant, controller, t_end, id=f"{plant}-{controller}{suffix}")


@pytest.mark.parametrize("plant, controller, t_end", runner_cases())
def test_runner_matches_reference_loop(plant, controller, t_end):
    sc = Scenario(f"{plant}-{controller}", PLANTS[plant](), CONTROLLERS[controller](),
                  X0[plant], IntegrationSettings(dt=DT, t_end=t_end))
    assert_same_log(run_scenario(sc), reference_run(sc))


def rk4_over_rhs(rhs, x1, x2, w0, wm, w1, u, h):
    """The classical RK4 step whose operation order ``run_rows`` must keep."""
    hh = 0.5 * h
    a1, b1 = rhs(x1, x2, w0, u)
    a2, b2 = rhs(x1 + hh * a1, x2 + hh * b1, wm, u)
    a3, b3 = rhs(x1 + hh * a2, x2 + hh * b2, wm, u)
    a4, b4 = rhs(x1 + h * a3, x2 + h * b3, w1, u)
    return (x1 + h * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0,
            x2 + h * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0)


def block_of(plant, w0, *stages):
    """``block_inputs`` of a one-row block: the sample input w0, then the
    inputs at the midpoint and the end of the row's RK4 step, if it takes one."""
    if plant.n_states == 1:
        return np.array([w0, *stages])
    dx1, d = zip(w0[:2], *(w[:2] for w in stages))
    return (np.array(dx1), np.array(d), *(np.array([v]) for v in w0[2:]))


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_advance_matches_rk4_over_rhs(plant):
    # One row through run_rows, with a stub controller step holding u: the
    # step sees what sample gives, the row logs it, and the state moves by
    # one RK4 step over rhs. A block with no row to step (m = 0: the run's
    # last row alone, which the runner steps) calls no step, logs nothing
    # and leaves the state as it was.
    p = PLANTS[plant]()
    rng = np.random.default_rng(23)

    def draw(size=None):
        return (rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.integers(-6, 4, size)).tolist()

    for _ in range(3000):
        x1 = draw()
        x2 = draw() if p.n_states > 1 else 0.0
        u, h = draw(), float(rng.choice([1e-4, 1e-3 / 3, 0.05]))
        w0, wm, w1 = (tuple(draw(5)) if plant == "tracking" else draw() for _ in range(3))
        expected = rk4_over_rhs(p.rhs, x1, x2, w0, wm, w1, u, h)
        s, hdrift, g, delta_f = p.sample(x1, x2, w0)
        for w, m, after in ((block_of(p, w0, wm, w1), 1, expected), (block_of(p, w0), 0, (x1, x2))):
            seen, log = [], RowLog()

            def step(*args):
                seen.append(args)
                return u, 0.5, -0.5

            assert p.run_rows(x1, x2, w, m, step, h, log) == after
            row = [log.x1, log.x2, log.s, log.u, log.gain, log.gain_rate, log.delta_f]
            if m == 0:
                assert seen == [] and row == [[]] * len(row)
                continue
            assert seen == [(s, hdrift, g, h)]
            if p.n_states == 1:  # the runner takes s from x1 and delta_f from w
                assert row == [[x1], [], [], [u], [0.5], [-0.5], []] and w[0] == delta_f
            else:
                assert row == [[x1], [x2], [s], [u], [0.5], [-0.5], [delta_f]]


# ---------------------------------------------------------------------------
# Vectorized signals against their closed forms


def runner_instants(dt, t_end):
    """Every instant the runner evaluates inputs at, with its arithmetic:
    each RK4 step's start, midpoint and end."""
    n = row_count(t_end, dt)
    out = [(n - 1) * dt]
    for i in range(n - 1):
        t = i * dt
        out += (t, t + 0.5 * dt, t + dt)
    return np.array(out)


INSTANTS = {
    "dt=1e-4": runner_instants(1e-4, 20.0),
    "dt=3e-4": runner_instants(3e-4, 20.0),
}


def multi_sine_closed(terms, t):
    total = 0.0
    for a, w, p in terms:
        total += a * math.sin(w * t + p)
    return total


def square_closed(half_period, schedule, t):
    amp = schedule[0][1]
    for t0, a in schedule:
        if t >= t0:
            amp = a
    return amp if int(t // half_period) % 2 == 0 else -amp


def table_closed(times, levels, t):
    lo, hi = 0, len(times) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if times[mid] <= t:
            lo = mid
        else:
            hi = mid
    w = (t - times[lo]) / (times[hi] - times[lo])
    return levels[lo] + (levels[hi] - levels[lo]) * w


SIGNALS = {
    "smooth_multi_sine": (MultiSineSignal([1.5, 0.8], [0.1, 0.13], [0.0, 1.0], 2.3),
                          lambda sig, t: multi_sine_closed(sig.terms, t)),
    "square_sequence": (SquareSignal(2.5, [(0.0, 2.0), (15.0, 1.0)], 2.0),
                        lambda sig, t: square_closed(sig.half_period, sig.schedule, t)),
    "custom_table": (TableSignal([0.0, 0.7, 3.1, 9.9, 15.0, 20.1],
                                 [0.5, -1.0, 0.25, 0.3, 1.0, -0.5], 1.0),
                     lambda sig, t: table_closed(sig.times, sig.levels, t)),
}


@pytest.mark.parametrize("grid", sorted(INSTANTS))
@pytest.mark.parametrize("kind", sorted(SIGNALS))
def test_signal_values_match_closed_form(kind, grid):
    sig, closed = SIGNALS[kind]
    ts = INSTANTS[grid]
    expected = np.array([closed(sig, t) for t in ts.tolist()])
    assert np.array_equal(sig.values(ts), expected)


def test_square_parity_at_edges():
    # Each edge k*half_period and the floats on either side of it, where the
    # parity of the quotient flips, up to quotients beyond 2**53.
    sig, closed = SIGNALS["square_sequence"]
    edges = sig.half_period * np.concatenate((np.arange(20_000.0), 2.0 ** np.arange(50, 60)))
    ts = np.concatenate((edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), [-0.0]))
    expected = np.array([closed(sig, t) for t in ts.tolist()])
    assert np.array_equal(sig.values(ts), expected)


@pytest.mark.parametrize("grid", sorted(INSTANTS))
def test_reference_values_match_closed_form(grid):
    ref = SineReference(3.0, 0.4 * math.pi)
    a, w = ref.amplitude, ref.omega
    ts = INSTANTS[grid].tolist()
    yd, yd_dot, yd_ddot = ref.values(INSTANTS[grid])
    assert np.array_equal(yd, [a * math.sin(w * t) for t in ts])
    assert np.array_equal(yd_dot, [a * w * math.cos(w * t) for t in ts])
    assert np.array_equal(yd_ddot, [-a * w * w * math.sin(w * t) for t in ts])
