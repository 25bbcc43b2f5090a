"""Plant models, sliding surfaces and bounded disturbance signals.

Every time-dependent input of a plant (disturbances, the multiplicative
factor, the reference) is a closed form of t alone. A plant therefore splits
into a vectorized part and a scalar part, and owns the loop over a block of
rows. The runner calls two methods per block:

    block_inputs(grid, m, dt)    -> w, the inputs of the block as arrays,
                                    evaluated with numpy in one bound-checked
                                    call at the samples grid and at the
                                    midpoints grid[:m] + 0.5*dt and ends
                                    grid[:m] + dt of the RK4 steps of its
                                    first m rows
    run_rows(x1, x2, w, m, step, dt, log)
                                 -> (x1, x2) after the block's first m rows.
                                    Per row: the surface, exactly one
                                    controller ``step(s, h, g, dt)`` and one
                                    classical RK4 step of length dt with u
                                    held. The rows' values go to the lists
                                    of ``log``, a RowLog

The scalar reference forms, one instant or one row at a time, are

    inputs(t)                    -> one input w per instant of the array t
    rhs(x1, x2, w, u)            -> (x1_dot, x2_dot) of the true plant, with
                                    uncertainty in the actuated channel only
    sample(x1, x2, w)            -> (s, h, g, delta_f): the surface s, with h
                                    and g from the NOMINAL model (controllers
                                    never see the uncertainty), and the
                                    matched disturbance delta_f entering the
                                    s-dynamics, logged for diagnostics

The runner calls ``inputs`` and ``sample`` once per run, for the last row,
which takes no RK4 step and so is not one of the m rows of its block.
``run_rows`` writes the surface and the four RK4 stages of ``rhs`` inline,
in the operation order of ``sample`` and of a generic RK4 over ``rhs``, so
that the controller step is the one call per row; tests/test_equivalence.py
pins it to them bit for bit. Plants have at most two states; a first-order
plant ignores x2, returns 0.0 as its rate and leaves x2 unchanged.

``run_rows`` appends a row's state before it evaluates the surface, and the
row's other values once its controller step has returned, so that after a
ValueError (``math.sin`` of an overflowed value) the lists tell a failed
sample from a failed RK4 step. A first-order plant appends to x1, u, gain
and gain_rate only: its surface is its state and its delta_f its sample
input, which the runner copies from the log and from ``w``. Rows after a
non-finite value are computed all the same, since float arithmetic does not
raise on inf or NaN; the runner's check of the block discards them.

``true_bound`` is the declared bound on the matched disturbance when one
exists (simulator-side knowledge, hidden from controllers); ``None`` for the
tracking plant whose matched uncertainty is state-dependent.

Each signal has one formula, ``values(t)`` over an array of instants.
Evaluation is deterministic, and it matches a scalar math-module evaluation
bit for bit wherever numpy's float64 sin and cos round as math.sin and
math.cos do, which tests/test_equivalence.py checks on the instants the
runner uses. ``inputs`` and ``block_inputs`` pass every signal value
through ``verify_signal_bound``, the one check of its declared bound.

The scalar wrappers ``_Plant.deriv(x, t, u)``, ``_Signal.value(t)`` and
``SineReference.value``, ``rate`` and ``accel`` are not called by any
command. They stay only because the benchmark's counting pass wraps them by
name on every object that config builds.
"""

import csv
import math

import numpy as np

from .core import _is_finite_number, _require_positive
from .errors import DomainError, ParameterError

# Instants evaluated per vectorized call by the runner: large enough to
# amortize numpy's per-call cost, small enough that the per-instant inputs
# take little memory next to the log.
BLOCK = 1024


def _check_finite(name, values):
    vals = values if isinstance(values, (list, tuple)) else [values]
    for v in vals:
        if not _is_finite_number(v):
            raise ParameterError(f"{name} must be finite numbers, got {values!r}")


def _instants(t):
    return np.asarray(t, dtype=float)


# ---------------------------------------------------------------------------
# Disturbance signals


class _Signal:
    def value(self, t: float) -> float:
        return float(self.values([t])[0])


class MultiSineSignal(_Signal):
    """Sum of sines: sum_i a_i*sin(w_i*t + p_i), with declared bound mu."""

    kind = "smooth_multi_sine"

    def __init__(self, amplitudes, frequencies, phases, bound):
        if not (len(amplitudes) == len(frequencies) == len(phases)) or not amplitudes:
            raise ParameterError("amplitudes, frequencies and phases must have equal nonzero length")
        _check_finite("amplitudes", amplitudes)
        _check_finite("frequencies", frequencies)
        _check_finite("phases", phases)
        _require_positive("bound", bound)
        self.terms = tuple(zip(amplitudes, frequencies, phases))
        self.bound = bound

    def values(self, t):
        t = _instants(t)
        total = np.zeros(t.shape)
        for a, w, p in self.terms:
            total += a * np.sin(w * t + p)
        return total


class SquareSignal(_Signal):
    """Square wave flipping sign every half_period, with a piecewise-constant
    amplitude schedule [(start_time, amplitude), ...].

    Edges land on integer multiples of half_period, which the presets align
    with the integration grid so no event detection is needed.
    """

    kind = "square_sequence"

    def __init__(self, half_period, amplitudes, bound):
        _require_positive("half_period", half_period)
        if not amplitudes:
            raise ParameterError("amplitude schedule must be nonempty")
        starts = [t0 for t0, _ in amplitudes]
        _check_finite("amplitude schedule times", starts)
        _check_finite("amplitude schedule values", [a for _, a in amplitudes])
        if starts[0] != 0.0 or any(b <= a for a, b in zip(starts, starts[1:])):
            raise ParameterError(
                "amplitude schedule times must be strictly increasing from t = 0")
        _require_positive("bound", bound)
        self.half_period = half_period
        self.schedule = tuple(amplitudes)
        self.bound = bound
        self._starts = np.array(starts, dtype=float)
        self._amps = np.array([a for _, a in amplitudes], dtype=float)

    def values(self, t):
        t = _instants(t)
        # The amplitude of the last schedule entry starting at or before t.
        idx = np.searchsorted(self._starts, t, side="right") - 1
        amp = self._amps[np.maximum(idx, 0)]
        # Half of an even quotient is whole; this tests parity without a float
        # remainder, alike for +-0, NaN and quotients beyond 2**53.
        q = np.floor_divide(t, self.half_period)
        q *= 0.5
        return np.where(q == np.floor(q), amp, -amp)


class TableSignal(_Signal):
    """Linear interpolation through a (t, value) table. t up to a relative
    1e-12 past the last knot, the overrun ``sim.row_count`` allows past t_end,
    reads the last knot; t further outside the table is a domain error."""

    kind = "custom_table"

    def __init__(self, times, values, bound):
        if len(times) != len(values) or len(times) < 2:
            raise ParameterError("table needs at least two (t, value) rows of equal length")
        _check_finite("table times", list(times))
        _check_finite("table values", list(values))
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ParameterError("table times must be strictly increasing")
        _require_positive("bound", bound)
        self.times = tuple(times)
        self.levels = tuple(values)
        self.bound = bound
        self._t = np.array(times, dtype=float)
        self._v = np.array(values, dtype=float)

    @classmethod
    def from_csv(cls, path, bound):
        times, values = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or row[0].lstrip().startswith("#"):
                    continue
                try:
                    t, v = float(row[0]), float(row[1])
                except (ValueError, IndexError):
                    raise ParameterError(
                        f"{path}: row {reader.line_num}: expected two numbers 't,value', "
                        f"got {','.join(row)!r}"
                    ) from None
                times.append(t)
                values.append(v)
        return cls(times, values, bound)

    def values(self, t):
        t = _instants(t)
        ts, vs = self._t, self._v
        outside = (t < ts[0]) | (t > ts[-1] + 1e-12 * abs(ts[-1]))
        if outside.any():
            bad = float(t[outside][0])
            raise DomainError(f"t = {bad!r} outside table horizon [{ts[0]}, {ts[-1]}]")
        t = np.minimum(t, ts[-1])
        # Segment [lo, lo + 1] holding t; the last knot belongs to the last segment.
        lo = np.minimum(np.searchsorted(ts, t, side="right") - 1, len(ts) - 2)
        hi = lo + 1
        w = (t - ts[lo]) / (ts[hi] - ts[lo])
        v_lo = vs[lo]
        return v_lo + (vs[hi] - v_lo) * w


def verify_signal_bound(signal, t, *others):
    """signal.values(t), once |value| <= bound is checked at every instant of
    t (a 1e-12 relative allowance absorbs interpolation rounding); with
    other signals, the list of each one's values, each checked alike.
    Raises ParameterError at the earliest instant, in time, at which any of
    them breaks its bound."""
    t = _instants(t)
    values, breaches = [], []
    for sig in (signal, *others):
        v = sig.values(t)
        ok = np.abs(v) <= sig.bound * (1.0 + 1e-12)  # False on NaN too
        if not ok.all():
            bad = np.flatnonzero(~ok)
            i = bad[np.argmin(t[bad])]
            breaches.append((t[i], sig, v[i]))
        values.append(v)
    if breaches:
        ti, sig, vi = min(breaches, key=lambda b: b[0])
        raise ParameterError(f"{sig.kind} exceeds its declared bound {sig.bound!r} at "
                             f"t = {float(ti)!r}: value {float(vi)!r}")
    return values if others else values[0]


# ---------------------------------------------------------------------------
# Reference trajectory


class SineReference:
    """Reference y_d = amplitude*sin(omega*t) with analytic derivatives."""

    def __init__(self, amplitude, omega):
        _check_finite("amplitude", amplitude)
        _check_finite("omega", omega)
        self.amplitude = amplitude
        self.omega = omega

    def values(self, t):
        """(y_d, y_d_dot, y_d_ddot) at the instants t."""
        wt = self.omega * _instants(t)
        sin = np.sin(wt)
        a, w = self.amplitude, self.omega
        return a * sin, a * w * np.cos(wt), -a * w * w * sin

    def value(self, t):
        return float(self.values([t])[0][0])

    def rate(self, t):
        return float(self.values([t])[1][0])

    def accel(self, t):
        return float(self.values([t])[2][0])


# ---------------------------------------------------------------------------
# Plants


def _rk4_instants(grid, m, dt):
    """The samples grid, then the midpoints and the ends of the RK4 steps of
    its first m rows, with the arithmetic of a per-step loop."""
    return np.concatenate((grid, grid[:m] + 0.5 * dt, grid[:m] + dt))


class RowLog:
    """One block's rows, one list per log column, as ``run_rows`` (and the
    runner, for the run's last row) appends them."""

    __slots__ = ("x1", "x2", "s", "u", "gain", "gain_rate", "delta_f")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, [])


class _Plant:
    def deriv(self, x, t, u):
        """rhs at the state tuple x and the instant t."""
        w = self.inputs([t])[0]
        return self.rhs(x[0], x[1] if len(x) > 1 else 0.0, w, u)[: self.n_states]


class _ScalarPlant(_Plant):
    """A first-order plant driven by one disturbance signal. Its surface is
    its state and its delta_f the signal's value at the sample, so its
    ``run_rows`` logs neither."""

    n_states = 1

    @property
    def true_bound(self):
        return self.signal.bound

    def inputs(self, t):
        return verify_signal_bound(self.signal, t).tolist()

    def block_inputs(self, grid, m, dt):
        """The signal at the samples, midpoints and ends, in that order."""
        return verify_signal_bound(self.signal, _rk4_instants(grid, m, dt))


class RegulationPlant(_ScalarPlant):
    """Scalar plant x_dot = df(t) + u regulated to the surface s = x."""

    kind = "regulation"

    def __init__(self, signal):
        self.signal = signal

    def rhs(self, x1, x2, w, u):
        return w + u, 0.0

    def sample(self, x1, x2, w):
        return x1, 0.0, 1.0, w

    def run_rows(self, x1, x2, w, m, step, dt, log):
        c = len(w) - 2 * m
        w = w.tolist()
        xs, us, gains, rates = log.x1, log.u, log.gain, log.gain_rate
        for w0, wm, w1 in zip(w[:m], w[c:c + m], w[c + m:]):
            xs.append(x1)
            u, gain, rate = step(x1, 0.0, 1.0, dt)
            us.append(u)
            gains.append(gain)
            rates.append(rate)
            # The rate does not depend on x, so RK4 stages 2 and 3 coincide.
            a2 = wm + u
            x1 = x1 + dt * (w0 + u + 2.0 * a2 + 2.0 * a2 + (w1 + u)) / 6.0
        return x1, x2


class LinearPlant(_ScalarPlant):
    """Scalar plant x_dot = a*x + b*u + df(t) with surface s = x.

    Generic matched-uncertainty case with nonzero nominal drift h = a*x and
    input gain g = b (b = 0 is rejected: the channel must stay controllable).
    """

    kind = "linear"

    def __init__(self, a, b, signal):
        _check_finite("a", a)
        _check_finite("b", b)
        if b == 0.0:
            raise ParameterError("input gain b must be nonzero")
        self.a = a
        self.b = b
        self.signal = signal

    def rhs(self, x1, x2, w, u):
        return self.a * x1 + self.b * u + w, 0.0

    def sample(self, x1, x2, w):
        return x1, self.a * x1, self.b, w

    def run_rows(self, x1, x2, w, m, step, dt, log):
        c = len(w) - 2 * m
        w = w.tolist()
        a, b, hh = self.a, self.b, 0.5 * dt
        xs, us, gains, rates = log.x1, log.u, log.gain, log.gain_rate
        for w0, wm, w1 in zip(w[:m], w[c:c + m], w[c + m:]):
            xs.append(x1)
            ax = a * x1
            u, gain, rate = step(x1, ax, b, dt)
            us.append(u)
            gains.append(gain)
            rates.append(rate)
            bu = b * u
            a1 = ax + bu + w0
            a2 = a * (x1 + hh * a1) + bu + wm
            a3 = a * (x1 + hh * a2) + bu + wm
            a4 = a * (x1 + dt * a3) + bu + w1
            x1 = x1 + dt * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
        return x1, x2


class TrackingPlant(_Plant):
    """Second-order plant with multiplicative and additive uncertainty.

        x1_dot = x2
        x2_dot = x1*dx1(t)*x2 + sin(x1*dx1(t)) + d(t) + u

    where dx1(t) = 1 + mult(t). The surface s = (x2 - yd_dot) + lam*(x1 - yd)
    tracks the reference; h and g come from the nominal model (dx1 = 1, d = 0).
    Both uncertainties enter only the actuated x2 channel, so the matching
    condition holds structurally.

    The input at an instant is the tuple (dx1, d, yd, yd_dot, yd_ddot). A
    block's inputs are dx1 and d at its samples, midpoints and ends, and the
    reference at its samples only, since only the surface reads it.
    """

    kind = "tracking"
    n_states = 2

    def __init__(self, mult_signal, add_signal, reference, lam):
        _require_positive("lambda", lam)
        self.mult = mult_signal
        self.add = add_signal
        self.reference = reference
        self.lam = lam

    # The matched uncertainty depends on the state, so no constant bound is
    # declared; the bound verifiers report not-applicable for this plant.
    true_bound = None

    def inputs(self, t):
        mult, add = verify_signal_bound(self.mult, t, self.add)
        yd, yd_dot, yd_ddot = self.reference.values(t)
        return list(zip((1.0 + mult).tolist(), add.tolist(),
                        yd.tolist(), yd_dot.tolist(), yd_ddot.tolist()))

    def block_inputs(self, grid, m, dt):
        """(dx1, d, yd, yd_dot, yd_ddot); dx1 and d at the samples, midpoints
        and ends, in that order."""
        mult, add = verify_signal_bound(self.mult, _rk4_instants(grid, m, dt), self.add)
        return (1.0 + mult, add, *self.reference.values(grid))

    def rhs(self, x1, x2, w, u):
        dx1 = w[0]
        return x2, x1 * dx1 * x2 + math.sin(x1 * dx1) + w[1] + u

    def sample(self, x1, x2, w):
        dx1, d, yd, yd_dot, yd_ddot = w
        e = x1 - yd
        e_rate = x2 - yd_dot
        s = e_rate + self.lam * e
        nominal = x1 * x2 + math.sin(x1)
        h = nominal - yd_ddot + self.lam * e_rate
        return s, h, 1.0, (x1 * dx1 * x2 + math.sin(x1 * dx1)) - nominal + d

    def run_rows(self, x1, x2, w, m, step, dt, log):
        dx1, d, yd, yd_dot, yd_ddot = (v.tolist() for v in w)
        c = len(yd)
        lam, sin, hh = self.lam, math.sin, 0.5 * dt
        x1s, x2s, ss, us, gains, rates, dfs = (getattr(log, name) for name in RowLog.__slots__)
        for dx, dd, r, r_dot, r_ddot, dxm, dm, dxe, de in zip(
                dx1[:m], d[:m], yd, yd_dot, yd_ddot, dx1[c:c + m], d[c:c + m],
                dx1[c + m:], d[c + m:]):
            x1s.append(x1)
            x2s.append(x2)
            e_rate = x2 - r_dot
            s = e_rate + lam * (x1 - r)
            nominal = x1 * x2 + sin(x1)
            p = x1 * dx
            q = p * x2 + sin(p)  # the true x2 rate without d and u, shared by delta_f and RK4
            u, gain, rate = step(s, nominal - r_ddot + lam * e_rate, 1.0, dt)
            ss.append(s)
            us.append(u)
            gains.append(gain)
            rates.append(rate)
            dfs.append(q - nominal + dd)
            # x1_dot = x2, so each stage's x1 rate a_k is that stage's x2 (a1 = x2).
            b1 = q + dd + u
            y1, a2 = x1 + hh * x2, x2 + hh * b1
            p = y1 * dxm
            b2 = p * a2 + sin(p) + dm + u
            y1, a3 = x1 + hh * a2, x2 + hh * b2
            p = y1 * dxm
            b3 = p * a3 + sin(p) + dm + u
            y1, a4 = x1 + dt * a3, x2 + dt * b3
            p = y1 * dxe
            b4 = p * a4 + sin(p) + de + u
            x1, x2 = (x1 + dt * (x2 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0,
                      x2 + dt * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0)
        return x1, x2
