"""Fixed-step closed-loop runner, trajectory logs, metrics and stability-bound checks.

The loop is zero-order hold: at every sample the surface is evaluated, the
controller produces u (advancing its adaptive state once), u is held constant
and the plant takes one RK4 step of length dt to the next sample. Each
plant runs that loop itself over a block of rows (``run_rows`` in
smcsim.plants); the runner hands it the block's inputs, copies the rows it
logged into the trajectory log and checks them for finiteness, once per
block. Given a CSV path, the runner also writes the log's CSV as it goes,
one span of CHUNK rows at a time, and keeps only the columns the metrics
read at full length. Everything is deterministic; identical scenarios
produce bit-identical logs and CSVs.

The log carries the two Lyapunov-style columns for delta-adaptive runs on
plants with a declared uncertainty bound:

    V      = core.delta_surface(|s|, phi) + (rho/2)*(mu - gain)**2
    Vprime = |s| + gain/k        (0 when k = 0; the bound is then undefined)

Both columns are 0 for the switching baselines, whose stability certificates
use different machinery; the verifiers below recompute what they need from
the s and gain columns.
"""

import math
import os
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .controllers import DeltaAdaptiveSMC
from . import core
from .core import CertificateBounds, ultimate_band
from .csvformat import block_rows, format_rows
from .errors import InsufficientDataError, ParameterError, SimulationDiverged, SmcError
from .plants import BLOCK, RowLog

CERTIFICATE_TOL = 0.05  # the bound checks allow (1 + this) times the certified level
# Rows per slice of the passes over a finished log, and per span of a CSV
# that the runner writes while it integrates: 8 blocks.
CHUNK = 8 * BLOCK


@dataclass(frozen=True)
class IntegrationSettings:
    dt: float = 1e-4
    t_end: float = 30.0

    def __post_init__(self):
        core._require_positive("dt", self.dt)
        if not (math.isfinite(self.t_end / self.dt) and self.t_end >= self.dt):
            raise ParameterError(f"t_end must be >= dt with a finite t_end/dt, got "
                                 f"{self.t_end!r} at dt = {self.dt!r}")


@dataclass
class Scenario:
    name: str
    plant: object
    controller: object
    x0: tuple
    settings: IntegrationSettings
    config: Optional[dict] = None

    def __post_init__(self):
        self.x0 = tuple(float(v) for v in self.x0)
        if len(self.x0) != self.plant.n_states:
            raise ParameterError(
                f"x0 has {len(self.x0)} entries, plant '{self.plant.kind}' has "
                f"{self.plant.n_states} states"
            )
        for v in self.x0:
            if not math.isfinite(v):
                raise ParameterError(f"x0 entries must be finite, got {self.x0!r}")


@dataclass
class TrajectoryLog:
    t: np.ndarray
    x: np.ndarray
    s: np.ndarray
    u: np.ndarray
    gain: np.ndarray
    gain_rate: np.ndarray
    delta_f: np.ndarray
    V: np.ndarray
    Vprime: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.t)

    @property
    def dt(self):
        return self.meta["dt"]

    def columns(self):
        names = ["t"] + [f"x{i}" for i in range(self.x.shape[1])]
        names += ["s", "u", "gain", "gain_rate", "delta_f", "V", "Vprime"]
        return names

    def as_matrix(self, rows=slice(None)):
        cols = [self.t] + [self.x[:, i] for i in range(self.x.shape[1])]
        cols += [self.s, self.u, self.gain, self.gain_rate, self.delta_f, self.V, self.Vprime]
        return np.column_stack([c[rows] for c in cols])


def row_count(t_end: float, dt: float) -> int:
    """floor(t_end/dt) + 1, robust to the quotient sitting one ulp below an
    integer (30/1e-4 evaluates below 300000 in binary)."""
    q = t_end / dt
    return int(math.floor(q * (1.0 + 1e-12))) + 1


def run_scenario(scenario: Scenario, csv_path=None) -> TrajectoryLog:
    """Simulate the closed loop and return the sampled trajectory.

    Rows are processed BLOCK at a time. For each block
    ``plant.block_inputs`` evaluates the plant's time inputs once,
    vectorized, at the instants the loop uses: the samples i*dt, which start
    each RK4 step, and the step's midpoint i*dt + 0.5*dt and end i*dt + dt.
    A value above its signal's declared bound raises ParameterError naming
    the block's earliest offending instant. ``plant.run_rows`` then steps the
    block: one ``controller.step`` per row, the plant's surface and RK4
    arithmetic inline around it, and no step after the run's last row.

    After each block one numpy pass checks the state, the surface and the
    control for finiteness. Raises SimulationDiverged at the first row whose
    state, surface or control is non-finite, or whose sample or RK4 step
    raises ValueError (math.sin of an overflowed value); it carries the row
    and the last finite state, and u and gain when the controller ran on
    that state. Rows of the block after that one were stepped too and are
    discarded. It is raised too at the first row whose V or Vprime
    overflows, naming the column. These checks, IntegrationSettings' check
    of dt and each plant's g, fixed and nonzero when it is built, are the
    whole of the controller step's contract: steps check nothing themselves.

    With csv_path, the bytes that write_csv would write of the log are
    written there during the run, a span of CHUNK rows at a time once every
    block in it has passed the checks. The log's gain_rate, delta_f, V and
    Vprime are then held one span at a time and are None on the returned
    log; t, x, s, u and gain, which compute_metrics reads, are whole. A run
    that raises leaves no file at csv_path. For a first-order plant s is a
    view of the state column of x, with or without a path.
    """
    if csv_path is None:
        return _integrate(scenario, None)
    with open(csv_path, "wb") as fh:
        try:
            return _integrate(scenario, fh)
        except BaseException:
            fh.close()
            os.remove(csv_path)
            raise


def _integrate(scenario, fh):
    """run_scenario's loop; with fh, an open binary file, the CSV goes there."""
    plant = scenario.plant
    controller = scenario.controller
    controller.reset()
    st = scenario.settings
    dt = st.dt
    n = row_count(st.t_end, dt)
    step = controller.step  # looked up on the instance, where a tracer may wrap it
    first_order = plant.n_states == 1  # s is x1 and delta_f the sample input
    # Rows held by the columns that only the CSV reads (gain_rate, delta_f,
    # V, Vprime): all of them, or with a CSV one span; spans start at the
    # multiples of `span`.
    span = n if fh is None else min(n, CHUNK)

    # In place, so that no log-sized temporary is freed before the log is
    # allocated: glibc would then raise its mmap threshold and place the log
    # on the heap, where freed logs are not returned and peak memory grows.
    try:
        t_arr = np.arange(n, dtype=float)
        t_arr *= dt
        x_arr = np.empty((n, plant.n_states))
        s_arr = x_arr[:, 0] if first_order else np.empty(n)
        u_arr, gain_arr = np.empty(n), np.empty(n)
        rate_arr, df_arr = np.empty(span), np.empty(span)
        v_arr, vp_arr = np.zeros(span), np.zeros(span)
    except (MemoryError, ValueError) as exc:  # beyond memory, or beyond numpy's size limit
        raise ParameterError(f"cannot allocate a log of {n} rows ({exc})") from None

    def diverged(row, r, controlled, column="state"):
        """The report for row ``row`` from the logged state of row r, with
        that row's u and gain when the controller ran on it."""
        u, gain = (u_arr[r].item(), gain_arr[r].item()) if controlled else (None, None)
        return SimulationDiverged(row * dt, row=row, state=tuple(x_arr[r].tolist()),
                                  u=u, gain=gain, column=column)

    mu = plant.true_bound
    lyap = None
    if isinstance(controller, DeltaAdaptiveSMC) and mu is not None:
        lyap = controller
    x1 = scenario.x0[0]
    x2 = scenario.x0[1] if plant.n_states > 1 else 0.0
    for c0 in range(0, n, BLOCK):
        c1 = min(c0 + BLOCK, n)
        m = min(c1, n - 1) - c0  # rows that integrate on to the next sample
        o = c0 - c0 % span  # the span's first row: row r sits at r - o in its columns
        w = plant.block_inputs(t_arr[c0:c1], m, dt)
        log = RowLog()
        error = None
        try:
            x1, x2 = plant.run_rows(x1, x2, w, m, step, dt, log)
        except ValueError as exc:
            # math.sin of an overflowed value; package errors pass unchanged.
            if isinstance(exc, SmcError):
                raise
            error = exc
        # Rows c0..k1-1 stepped the controller; rows c0..r1-1 have a state,
        # the one after the block's last step included.
        k1 = c0 + len(log.u)
        r1 = c0 + len(log.x1)
        x_arr[c0:r1, 0] = log.x1
        if first_order:
            df_arr[c0 - o:k1 - o] = w[:k1 - c0]
        else:
            x_arr[c0:r1, 1] = log.x2
            s_arr[c0:k1] = log.s
            df_arr[c0 - o:k1 - o] = log.delta_f
        u_arr[c0:k1], gain_arr[c0:k1], rate_arr[c0 - o:k1 - o] = log.u, log.gain, log.gain_rate
        if error is None and c1 < n:
            x_arr[c1] = (x1, x2)[:plant.n_states]  # the next block writes it again
            r1 += 1
        # Row c0's state was checked with the previous block. Per row the
        # order is: its state (from the step before), its surface, its control.
        bad = ~np.isfinite(x_arr[c0:r1]).all(axis=1)
        bad[:k1 - c0] |= ~(np.isfinite(s_arr[c0:k1]) & np.isfinite(u_arr[c0:k1]))
        if bad.any():
            i = c0 + int(np.argmax(bad))
            if not np.isfinite(x_arr[i]).all():
                raise diverged(i, i - 1, True)
            raise diverged(i, i, math.isfinite(s_arr[i]))
        if error is not None:
            if r1 > k1:  # row k1 has a state: its sample raised
                raise diverged(k1, k1, False) from error
            raise diverged(k1, k1 - 1, True) from error  # row k1 - 1's RK4 step raised
        if lyap is not None:
            s_blk, gain_blk = s_arr[c0:c1], gain_arr[c0:c1]
            v_blk, vp_blk = v_arr[c0 - o:c1 - o], vp_arr[c0 - o:c1 - o]
            with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
                v_blk[:] = lyapunov_value(s_blk, gain_blk, mu, lyap.rho, lyap.phi)
                if lyap.k > 0.0:
                    vp_blk[:] = lyapunov_vprime(s_blk, gain_blk, lyap.k)
            ok = np.isfinite(v_blk) & np.isfinite(vp_blk)
            if not ok.all():
                i = int(np.argmin(ok))
                raise diverged(c0 + i, c0 + i, True, "Vprime" if math.isfinite(v_blk[i]) else "V")
        # Free this block's inputs and rows before the next block builds its
        # own, so that two blocks' worth never coexist at the memory peak.
        del w, log
        if fh is not None and (c1 - o == span or c1 == n):
            k = c1 - o
            _write_rows(fh, TrajectoryLog(t_arr[o:c1], x_arr[o:c1], s_arr[o:c1], u_arr[o:c1],
                                          gain_arr[o:c1], rate_arr[:k], df_arr[:k], v_arr[:k],
                                          vp_arr[:k]), header=o == 0)

    meta = {
        "scenario": scenario.name,
        "controller": controller.kind,
        "plant": plant.kind,
        "dt": dt,
        "substeps": 1,  # kept so that metrics.json keeps its bytes
        "t_end": st.t_end,
        "integrator": "rk4 plant substeps, euler adaptive states, zero-order-hold control",
        "package_version": __version__,
    }
    if fh is not None:  # the span columns: written, and holding only the last span
        rate_arr = df_arr = v_arr = vp_arr = None
    return TrajectoryLog(t_arr, x_arr, s_arr, u_arr, gain_arr, rate_arr, df_arr, v_arr, vp_arr,
                         meta)


def _write_rows(fh, log, header):
    """The CSV format: to the binary file fh, with header the row of column
    names first, then every row of log, its floats printed as ``"%.17g"``,
    the same bytes as np.savetxt. write_csv writes a whole log in one call,
    run_scenario a span of rows per call."""
    if header:
        fh.write((",".join(log.columns()) + "\n").encode())
        # glibc gives the top of its heap back to the system when more than
        # 128 KiB lie free there, so a block's temporaries, once freed, could
        # be faulted in afresh on every block: 150 000-195 000 faults and
        # ~0.4 s more per 300 001-row log in a forked compare process.
        # Freeing one mapped 1-MiB array raises that limit to 2 MiB first;
        # a 2.4-MB log column is still mapped.
        np.empty(1 << 17)
    # Sized so that format_rows' temporaries come from the heap whatever
    # earlier frees did to glibc's threshold; fixed 1024-row blocks were
    # mapped and faulted in afresh on every block unless a larger free had
    # raised it, about 0.3 s more per 300 001-row log.
    step = block_rows(len(log.columns()))
    for r0 in range(0, len(log), step):
        fh.write(format_rows(log.as_matrix(slice(r0, r0 + step))))


def write_csv(log: TrajectoryLog, path):
    """Serialize a log that has every column (run_scenario without a CSV
    path) as run_scenario with one writes it."""
    with open(path, "wb") as fh:
        _write_rows(fh, log, header=True)


# ---------------------------------------------------------------------------
# Passes over a finished log
#
# Each pass walks the log in CHUNK-row slices and carries a few scalars
# across chunk edges, so that it allocates no temporary the size of the log:
# a command holds the log and O(CHUNK) scratch. At 8192 rows each float64
# temporary takes 64 KiB, under glibc's 128 KiB mmap threshold, so it is
# reused from the heap rather than mapped and faulted in afresh.


def _chunks(start, stop):
    """(c0, c1) bounds of consecutive CHUNK-row slices of rows [start, stop)."""
    for c0 in range(start, stop, CHUNK):
        yield c0, min(c0 + CHUNK, stop)


def _first_dwell(s, limit, width):
    """First row from which |s| <= limit holds on `width` consecutive rows,
    or None. Carries the first row of the current in-limit run."""
    start = 0
    for c0, c1 in _chunks(0, len(s)):
        breaks = c0 + np.flatnonzero(~(np.abs(s[c0:c1]) <= limit))
        starts = np.concatenate(([start], breaks + 1))
        runs = np.append(breaks, c1) - starts  # in-limit run lengths, the last still open
        long = np.flatnonzero(runs >= width)
        if long.size:
            return int(starts[long[0]])
        start = int(starts[-1])
    return None


def _band_entry(s, eta):
    """(first row with |s| < eta, max |s| from that row on), or (None, None)."""
    first, peak = None, -math.inf
    for c0, c1 in _chunks(0, len(s)):
        a = np.abs(s[c0:c1])
        if first is None:
            inside = np.flatnonzero(a < eta)
            if not inside.size:
                continue
            first = c0 + int(inside[0])
            a = a[inside[0]:]
        peak = np.maximum(peak, a.max())
    return first, None if first is None else float(peak)


# ---------------------------------------------------------------------------
# Metrics


@dataclass
class RunMetrics:
    reach_time_to_band: Optional[float]
    steady_band_mean: float
    steady_band_max: float
    chattering_index: float
    max_gain: float
    overshoot_into_band: Optional[float]
    ultimate_bound_satisfied: Optional[bool] = None

    def as_dict(self):
        return asdict(self)


def steady_window(n: int) -> int:
    """First row index of the final-25% window used by the steady metrics."""
    w = int(round(0.25 * (n - 1))) + 1
    if w < 2:
        raise InsufficientDataError("log too short for a final-25% window")
    return n - w


def compute_metrics(log: TrajectoryLog, phi: Optional[float]) -> RunMetrics:
    """Reach/steady/chattering statistics of one run.

    reach_time_to_band is the first sample time from which |s| stays within
    2*eta for at least 0.5 s; the chattering index is the total variation of
    u per second over the final quarter of the horizon. phi supplies the band
    yardstick; without one (controllers with no layer width) the band-relative
    fields are None. The steady statistics and the chattering sum each reduce
    one quarter-window array at once: numpy sums pairwise, so a sum of chunk
    sums would round differently. The band searches walk the log in chunks.
    """
    n = len(log)
    dt = log.dt
    i0 = steady_window(n)

    reach = None
    overshoot = None
    if phi is not None:
        eta = ultimate_band(phi)
        sustain = int(round(0.5 / dt))
        if sustain < 1 or sustain > n - 1:
            raise InsufficientDataError("horizon too short to certify a 0.5 s band dwell")
        first = _first_dwell(log.s, 2.0 * eta, sustain + 1)
        reach = None if first is None else float(first * dt)
        overshoot = _band_entry(log.s, eta)[1]

    tail = np.abs(log.s[i0:])
    steady_mean, steady_max = float(np.mean(tail)), float(np.max(tail))
    del tail  # one quarter-window array at a time
    du = np.diff(log.u[i0:])
    chat = float(np.abs(du, out=du).sum() / ((n - i0 - 1) * dt))

    return RunMetrics(
        reach_time_to_band=reach,
        steady_band_mean=steady_mean,
        steady_band_max=steady_max,
        chattering_index=chat,
        max_gain=float(np.max(log.gain)),
        overshoot_into_band=overshoot,
    )


# ---------------------------------------------------------------------------
# Lyapunov diagnostics and stability-bound verification


@dataclass
class LyapunovTrace:
    """Interior-row Lyapunov diagnostics: ``checked`` marks the rows 1..n-2
    with |s| >= eta; ``violations`` lists the checked rows whose discrete
    V-dot exceeds the certificate plus slack, ``isolated_violations`` those
    of them that are not within one sample of an eta-crossing."""

    checked: np.ndarray
    violations: np.ndarray
    isolated_violations: np.ndarray


def lyapunov_value(s, gain, mu, rho, phi):
    """V = core.delta_surface(|s|, phi) + (rho/2)*(mu - gain)**2, elementwise."""
    e = mu - np.asarray(gain, dtype=float)
    return core.delta_surface(np.abs(s), phi) + 0.5 * rho * e * e


def lyapunov_vprime(s, gain, k):
    """V' = |s| + gain/k, elementwise, the level the reach-time certificate
    bounds; k > 0 is the caller's duty."""
    return np.abs(s) + gain / k


def lyapunov_decay_bound(a, phi, k):
    """The certificate -k*|s|*core.adaptation_shape(|s|, phi) on V-dot at
    |s| = a; it vanishes at |s| = eta."""
    return -k * a * core.adaptation_shape(a, phi)


def lyapunov_trace(log: TrajectoryLog, mu, rho, phi, k) -> LyapunovTrace:
    """Check discrete V-dot <= -k*|s|*shape(s) + slack on rows with |s| >= eta.

    V-dot uses central differences; the slack, 10*|second difference|/dt +
    1e-9, scales with the local truncation of that estimate and swells near
    switching instants, where a discrete derivative cannot certify the
    continuous inequality. Violating rows are additionally classified by
    whether |s| crosses eta within one sample. Each chunk of interior rows
    reads one row more on either side for the differences.
    """
    n = len(log)
    if n < 3:
        raise InsufficientDataError("need at least 3 rows for central differences")
    dt = log.dt
    eta = ultimate_band(phi)
    checked = np.empty(n - 2, dtype=bool)
    violations, isolated = [], []
    for c0, c1 in _chunks(1, n - 1):
        s = log.s[c0 - 1:c1 + 1]
        V = lyapunov_value(s, log.gain[c0 - 1:c1 + 1], mu, rho, phi)
        a = np.abs(s)
        vdot = (V[2:] - V[:-2]) / (2.0 * dt)
        slack = 10.0 * np.abs(V[2:] - 2.0 * V[1:-1] + V[:-2]) / dt + 1e-9
        ok = checked[c0 - 1:c1 - 1]
        np.greater_equal(a[1:-1], eta, out=ok)
        bad = ok & (vdot > lyapunov_decay_bound(a[1:-1], phi, k) + slack)
        crossing = (a[:-1] - eta) * (a[1:] - eta) <= 0.0
        near = crossing[:-1] | crossing[1:]  # within one sample of an eta-crossing
        violations.append(c0 + np.flatnonzero(bad))
        isolated.append(c0 + np.flatnonzero(bad & ~near))
    return LyapunovTrace(checked, np.concatenate(violations), np.concatenate(isolated))


@dataclass
class UltimateBoundCheck:
    applicable: bool
    holds: Optional[bool]
    T: Optional[float]
    b: float
    limit: float
    max_vprime_after: Optional[float]
    reason: str = ""


def verify_ultimate_bound(log: TrajectoryLog, k, rho, mu, b) -> UltimateBoundCheck:
    """Check V' <= limit = b*(1 + CERTIFICATE_TOL) for all logged t >= T.

    ``applicable`` reports whether the certificate's own preconditions hold
    (v0 = V'(0) > sigma/k and sigma/k < b < v0); the inequality is still
    measured whenever the T formula is defined, since the certificate may
    hold outside its sufficient conditions. sigma/k and T come from
    core._certificate; a negative T (b above v0) counts as 0. The rows from
    T on start at the first t >= T, found by bisection on the ascending t.
    """
    limit = b * (1.0 + CERTIFICATE_TOL)
    if k <= 0.0 or rho <= 0.0:
        return UltimateBoundCheck(False, None, None, b, limit, None,
                                  "k and rho must be positive")
    v0 = float(lyapunov_vprime(log.s[0], log.gain[0], k))
    _, floor, _, T = core._certificate(mu, rho, k, v0, b)
    applicable = v0 > floor and floor < b < v0
    reason = "" if applicable else (
        f"initial level v0 = {v0:.6g} does not satisfy v0 > sigma/k = {floor:.6g} "
        f"with sigma/k < b < v0"
    )
    if math.isnan(T):
        return UltimateBoundCheck(applicable, None, None, b, limit, None,
                                  reason or "reach-time formula undefined for this b")
    T = T if T > 0.0 else 0.0  # b above v0: bounded from the start
    i0 = int(np.searchsorted(log.t, T))
    if i0 == len(log):
        return UltimateBoundCheck(applicable, None, T, b, limit, None,
                                  reason or "horizon ends before T")
    peak = -math.inf
    for c0, c1 in _chunks(i0, len(log)):
        peak = np.maximum(peak, lyapunov_vprime(log.s[c0:c1], log.gain[c0:c1], k).max())
    # A NaN peak holds, as no row then compares above the limit.
    return UltimateBoundCheck(applicable, not peak > limit, T, b, limit, float(peak), reason)


@dataclass
class ExcursionBoundCheck:
    applicable: bool
    holds: Optional[bool]
    entry_time: Optional[float]
    max_excursion: Optional[float]
    delta: float
    limit: float
    reason: str = ""


def verify_band_excursion(log: TrajectoryLog, m, delta, phi) -> ExcursionBoundCheck:
    """Check max |s(t)| < limit = delta*(1 + CERTIFICATE_TOL) after the first
    entry into |s| < eta."""
    limit = delta * (1.0 + CERTIFICATE_TOL)
    if not (math.isfinite(m) and math.isfinite(delta)):
        return ExcursionBoundCheck(False, None, None, None, delta, limit,
                                   "no feasible oscillator stiffness m")
    i1, exc = _band_entry(log.s, ultimate_band(phi))
    if i1 is None:
        return ExcursionBoundCheck(False, None, None, None, delta, limit,
                                   "trajectory never reached the band within the horizon")
    return ExcursionBoundCheck(True, exc < limit, float(log.t[i1]), exc, delta, limit)


def certificate_summary(mu, rho, phi, k, v0):
    """The certificate bounds (sigma, T, b) and the overshoot bound (m, delta)
    for reports.

    sigma, T and b come from core._certificate, b the midpoint of
    (sigma/k, v0); all three are NaN unless k and rho are positive.
    """
    sigma = T = b = math.nan
    if k > 0.0 and rho > 0.0:
        sigma, _, b, T = core._certificate(mu, rho, k, v0)
    # Looked up on core at each call, so that a wrapper put on
    # core.overshoot_bound (perfbench's tracer) sees this call too.
    ob = core.overshoot_bound(mu, rho, phi)
    return CertificateBounds(sigma=sigma, T=T, b=b), ob
