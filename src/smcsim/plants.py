"""Plant models, sliding surfaces and bounded disturbance signals.

Every time-dependent input of a plant (disturbances, the multiplicative
factor, the reference) is a closed form of t alone. A plant therefore splits
into a vectorized part and a scalar part:

    inputs(t)                    -> one input w per instant of the array t,
                                    evaluated with numpy in one pass
    stage_inputs(t)              -> the part of inputs(t) that rhs and
                                    advance read, for the RK4 midpoint and
                                    end instants
    rhs(x1, x2, w, u)            -> (x1_dot, x2_dot) of the true plant, with
                                    uncertainty in the actuated channel only
    advance(x1, x2, w0, wm, w1, u, h)
                                 -> (x1, x2) after one classical RK4 step of
                                    rhs over h, with the inputs w0, wm, w1 at
                                    its start, midpoint and end
    sample(x1, x2, w)            -> (s, h, g, delta_f): the surface s, with h
                                    and g from the NOMINAL model (controllers
                                    never see the uncertainty), and the
                                    matched disturbance delta_f entering the
                                    s-dynamics, logged for diagnostics

The runner evaluates ``inputs`` and ``stage_inputs`` once per block of
instants and calls the scalar methods per row: one ``sample`` and one
``advance`` over h = dt, the plant taking one RK4 step per sample.
``advance`` writes the four RK4 stages of its ``rhs`` inline, in the
operation order of a generic RK4 over ``rhs``, so that the runner makes one
plant call per step; tests/test_equivalence.py
pins it to ``rhs`` bit for bit. Plants have at most two states; a
first-order plant ignores x2, returns 0.0 as its rate and leaves x2
unchanged in ``advance``.

``true_bound`` is the declared bound on the matched disturbance when one
exists (simulator-side knowledge, hidden from controllers); ``None`` for the
tracking plant whose matched uncertainty is state-dependent.

Each signal has one formula, ``values(t)`` over an array of instants.
Evaluation is deterministic, and it matches a scalar math-module evaluation
bit for bit wherever numpy's float64 sin and cos round as math.sin and
math.cos do, which tests/test_equivalence.py checks on the instants the
runner uses. ``inputs`` and ``stage_inputs`` pass every signal value
through ``verify_signal_bound``, the one check of its declared bound.

The scalar wrappers ``_Plant.deriv(x, t, u)``, ``_Signal.value(t)`` and
``SineReference.value``, ``rate`` and ``accel`` are not called by any
command. They stay only because the benchmark's counting pass wraps them by
name on every object that config builds.
"""

import csv
import math

import numpy as np

from .core import _require_positive
from .errors import DomainError, ParameterError

# Instants evaluated per vectorized call by the runner: large enough to
# amortize numpy's per-call cost, small enough that the per-instant inputs
# take little memory next to the log.
BLOCK = 1024


def _check_finite(name, values):
    vals = values if isinstance(values, (list, tuple)) else [values]
    for v in vals:
        if not isinstance(v, (int, float)) or not math.isfinite(v):
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
        return np.where(np.floor_divide(t, self.half_period) % 2 == 0, amp, -amp)


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


class _Plant:
    def deriv(self, x, t, u):
        """rhs at the state tuple x and the instant t."""
        w = self.inputs([t])[0]
        return self.rhs(x[0], x[1] if len(x) > 1 else 0.0, w, u)[: self.n_states]


class RegulationPlant(_Plant):
    """Scalar plant x_dot = df(t) + u regulated to the surface s = x."""

    kind = "regulation"
    n_states = 1

    def __init__(self, signal):
        self.signal = signal

    @property
    def true_bound(self):
        return self.signal.bound

    def inputs(self, t):
        return verify_signal_bound(self.signal, t).tolist()

    stage_inputs = inputs

    def rhs(self, x1, x2, w, u):
        return w + u, 0.0

    def advance(self, x1, x2, w0, wm, w1, u, h):
        # The rate does not depend on x, so stages 2 and 3 coincide.
        a2 = wm + u
        return x1 + h * (w0 + u + 2.0 * a2 + 2.0 * a2 + (w1 + u)) / 6.0, x2

    def sample(self, x1, x2, w):
        return x1, 0.0, 1.0, w


class LinearPlant(_Plant):
    """Scalar plant x_dot = a*x + b*u + df(t) with surface s = x.

    Generic matched-uncertainty case with nonzero nominal drift h = a*x and
    input gain g = b (b = 0 is rejected: the channel must stay controllable).
    """

    kind = "linear"
    n_states = 1

    def __init__(self, a, b, signal):
        _check_finite("a", a)
        _check_finite("b", b)
        if b == 0.0:
            raise ParameterError("input gain b must be nonzero")
        self.a = a
        self.b = b
        self.signal = signal

    @property
    def true_bound(self):
        return self.signal.bound

    def inputs(self, t):
        return verify_signal_bound(self.signal, t).tolist()

    stage_inputs = inputs

    def rhs(self, x1, x2, w, u):
        return self.a * x1 + self.b * u + w, 0.0

    def advance(self, x1, x2, w0, wm, w1, u, h):
        a, bu, hh = self.a, self.b * u, 0.5 * h
        a1 = a * x1 + bu + w0
        a2 = a * (x1 + hh * a1) + bu + wm
        a3 = a * (x1 + hh * a2) + bu + wm
        a4 = a * (x1 + h * a3) + bu + w1
        return x1 + h * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0, x2

    def sample(self, x1, x2, w):
        return x1, self.a * x1, self.b, w


class TrackingPlant(_Plant):
    """Second-order plant with multiplicative and additive uncertainty.

        x1_dot = x2
        x2_dot = x1*dx1(t)*x2 + sin(x1*dx1(t)) + d(t) + u

    where dx1(t) = 1 + mult(t). The surface s = (x2 - yd_dot) + lam*(x1 - yd)
    tracks the reference; h and g come from the nominal model (dx1 = 1, d = 0).
    Both uncertainties enter only the actuated x2 channel, so the matching
    condition holds structurally.

    The input at an instant is the tuple (dx1, d, yd, yd_dot, yd_ddot); a
    stage input is the pair (dx1, d), since only the sample needs the
    reference.
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

    def stage_inputs(self, t):
        mult, add = verify_signal_bound(self.mult, t, self.add)
        return list(zip((1.0 + mult).tolist(), add.tolist()))

    def rhs(self, x1, x2, w, u):
        dx1 = w[0]
        return x2, x1 * dx1 * x2 + math.sin(x1 * dx1) + w[1] + u

    def advance(self, x1, x2, w0, wm, w1, u, h):
        # x1_dot = x2, so each stage's x1 rate a_k is that stage's x2 (a1 = x2).
        sin, hh = math.sin, 0.5 * h
        dxm, dm = wm[0], wm[1]
        p = x1 * w0[0]
        b1 = p * x2 + sin(p) + w0[1] + u
        y1, a2 = x1 + hh * x2, x2 + hh * b1
        p = y1 * dxm
        b2 = p * a2 + sin(p) + dm + u
        y1, a3 = x1 + hh * a2, x2 + hh * b2
        p = y1 * dxm
        b3 = p * a3 + sin(p) + dm + u
        y1, a4 = x1 + h * a3, x2 + h * b3
        p = y1 * w1[0]
        b4 = p * a4 + sin(p) + w1[1] + u
        return (x1 + h * (x2 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0,
                x2 + h * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0)

    def sample(self, x1, x2, w):
        dx1, d, yd, yd_dot, yd_ddot = w
        e = x1 - yd
        e_rate = x2 - yd_dot
        s = e_rate + self.lam * e
        nominal = x1 * x2 + math.sin(x1)
        h = nominal - yd_ddot + self.lam * e_rate
        return s, h, 1.0, (x1 * dx1 * x2 + math.sin(x1 * dx1)) - nominal + d
