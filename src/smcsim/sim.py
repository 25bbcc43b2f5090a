"""Fixed-step closed-loop runner, trajectory logs, metrics and stability-bound checks.

The loop is zero-order hold: at every sample the surface is evaluated, the
controller produces u (advancing its adaptive state once), u is held constant
and the plant takes one RK4 step of length dt to the next sample. Each
plant runs that loop itself over a block of rows (``run_rows`` in
smcsim.plants); the runner hands it the block's inputs, copies the rows it
logged into the trajectory log and checks them for finiteness, once per
block. The caller names the columns it reads whole; the runner holds the
others one span of CHUNK rows at a time. Given a CSV path,
it also writes the log's CSV as it goes, a span at a time. Everything is
deterministic; identical scenarios produce bit-identical logs and CSVs.

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
# The columns of a trajectory log, and those that compute_metrics reads.
COLUMNS = ("t", "x", "s", "u", "gain", "gain_rate", "delta_f", "V", "Vprime")
METRIC_COLUMNS = ("t", "x", "s", "u", "gain")


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


def run_scenario(scenario: Scenario, csv_path=None, keep=None) -> TrajectoryLog:
    """Simulate the closed loop and return the sampled trajectory.

    Rows are processed BLOCK at a time. For each block
    ``plant.block_inputs`` evaluates the plant's time inputs once,
    vectorized, at the instants the loop uses: the samples i*dt, which start
    each RK4 step, and the step's midpoint i*dt + 0.5*dt and end i*dt + dt.
    A value above its signal's declared bound raises ParameterError naming
    the block's earliest offending instant. ``plant.run_rows`` then steps
    the block's rows but the run's last: one ``controller.step`` per row,
    the plant's surface and RK4 arithmetic inline around it. The runner
    steps that last row, which takes no RK4 step, through ``plant.sample``.

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

    keep names the columns (of COLUMNS) that the returned log holds whole;
    every other column is None on it. By default that is every column, or
    with csv_path the METRIC_COLUMNS that compute_metrics reads. t is
    always whole (the block inputs read it), and for a first-order plant s
    is a view of the state column of x, so keeping either keeps both. A
    column that is not kept is held one span of CHUNK rows at a time.

    With csv_path, the bytes that write_csv would write of a whole log are
    written there during the run, a span at a time once every block in it
    has passed the checks. A run that raises leaves no file at csv_path.
    """
    if keep is None:
        keep = COLUMNS if csv_path is None else METRIC_COLUMNS
    if csv_path is None:
        return _integrate(scenario, None, keep)
    with open(csv_path, "wb") as fh:
        try:
            return _integrate(scenario, fh, keep)
        except BaseException:
            fh.close()
            os.remove(csv_path)
            raise


def _integrate(scenario, fh, keep):
    """run_scenario's loop; with fh, an open binary file, the CSV goes there."""
    plant = scenario.plant
    controller = scenario.controller
    controller.reset()
    st = scenario.settings
    dt = st.dt
    n = row_count(st.t_end, dt)
    step = controller.step  # looked up on the instance, where a tracer may wrap it
    first_order = plant.n_states == 1  # s is x1 and delta_f the sample input
    keep = {"t", *keep}
    if first_order and keep & {"x", "s"}:
        keep |= {"x", "s"}
    # A column that is not kept holds one span of rows; spans start at the
    # multiples of `span`. x has one row more, where a block puts the state
    # of the next block's first row.
    span = min(n, CHUNK)

    # In place, so that no log-sized temporary is freed before the log is
    # allocated: glibc would then raise its mmap threshold and place the log
    # on the heap, where freed logs are not returned and peak memory grows.
    try:
        t_arr = np.arange(n, dtype=float)
        t_arr *= dt
        cols = {"t": t_arr, "x": np.empty((n if "x" in keep else span + (span < n),
                                           plant.n_states))}
        for name in COLUMNS[2:]:
            if name == "s" and first_order:
                cols[name] = cols["x"][:, 0]
            else:
                cols[name] = (np.zeros if name in ("V", "Vprime") else np.empty)(
                    n if name in keep else span)
    except (MemoryError, ValueError) as exc:  # beyond memory, or beyond numpy's size limit
        raise ParameterError(f"cannot allocate a log of {n} rows ({exc})") from None

    def rows(name, r0, r1):
        """Rows r0..r1-1 of a column, all in one span: a column that is not
        kept holds row r at r - o, o the first row of its span."""
        o = 0 if name in keep else r0 - r0 % span
        return cols[name][r0 - o:r1 - o]

    def diverged(i, r, controlled, column="state"):
        """The report for row c0 + i from the logged state of row c0 + r of
        the current block, with that row's u and gain when the controller
        ran on it."""
        u, gain = (ub[r].item(), gb[r].item()) if controlled else (None, None)
        return SimulationDiverged((c0 + i) * dt, row=c0 + i, state=tuple(xb[r].tolist()),
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
        w = plant.block_inputs(t_arr[c0:c1], m, dt)
        log = RowLog()
        error = None
        try:
            x1, x2 = plant.run_rows(x1, x2, w, m, step, dt, log)
            if c1 == n:  # the run's last row: state, surface, control, no RK4 step
                log.x1.append(x1)
                log.x2.append(x2)
                s, h, g, delta_f = plant.sample(x1, x2, plant.inputs(t_arr[n - 1:])[0])
                u, gain, rate = step(s, h, g, dt)
                for name, v in zip(RowLog.__slots__[2:], (s, u, gain, rate, delta_f)):
                    getattr(log, name).append(v)
        except ValueError as exc:
            # math.sin of an overflowed value; package errors pass unchanged.
            if isinstance(exc, SmcError):
                raise
            error = exc
        # The block's rows of each column, indexed from 0 at row c0; x has
        # row c1 too. Rows 0..k-1 stepped the controller; rows 0..r-1 have a
        # state, the one after the block's last step included.
        xb = rows("x", c0, c1 + 1)
        sb, ub, gb, rb, db, vb, vpb = (rows(name, c0, c1) for name in COLUMNS[2:])
        k, r = len(log.u), len(log.x1)
        xb[:r, 0] = log.x1
        if not first_order:
            xb[:r, 1] = log.x2
            sb[:k] = log.s
        db[:k] = w[:k] if first_order else log.delta_f
        rb[:k], ub[:k], gb[:k] = log.gain_rate, log.u, log.gain
        if error is None and c1 < n:
            xb[c1 - c0] = (x1, x2)[:plant.n_states]  # the next block writes it again
            r += 1
        # Row c0's state was checked with the previous block. Per row the
        # order is: its state (from the step before), its surface, its control.
        bad = ~np.isfinite(xb[:r]).all(axis=1)
        bad[:k] |= ~(np.isfinite(sb[:k]) & np.isfinite(ub[:k]))
        if bad.any():
            i = int(np.argmax(bad))
            if not np.isfinite(xb[i]).all():
                raise diverged(i, i - 1, True)
            raise diverged(i, i, math.isfinite(sb[i]))
        if error is not None:
            if r > k:  # row k has a state: its sample raised
                raise diverged(k, k, False) from error
            raise diverged(k, k - 1, True) from error  # row k - 1's RK4 step raised
        if lyap is not None:
            with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
                vb[:] = lyapunov_value(sb, gb, mu, lyap.rho, lyap.phi)
                if lyap.k > 0.0:
                    vpb[:] = lyapunov_vprime(sb, gb, lyap.k)
            ok = np.isfinite(vb) & np.isfinite(vpb)
            if not ok.all():
                i = int(np.argmin(ok))
                raise diverged(i, i, True, "Vprime" if math.isfinite(vb[i]) else "V")
        # Free this block's inputs and rows before the next block builds its
        # own, so that two blocks' worth never coexist at the memory peak.
        del w, log
        if fh is not None and (c1 % span == 0 or c1 == n):
            o = c0 - c0 % span
            _write_rows(fh, TrajectoryLog(*(rows(name, o, c1) for name in COLUMNS)),
                        header=o == 0)

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
    return TrajectoryLog(*(cols[name] if name in keep else None for name in COLUMNS), meta)


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
    path or keep) as run_scenario with a path writes it. A log that lacks
    columns raises InsufficientDataError naming them, and no file is made."""
    missing = [name for name in COLUMNS if getattr(log, name) is None]
    if missing:
        raise InsufficientDataError(f"cannot write a CSV of a log without its "
                                    f"{', '.join(missing)} column(s)")
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


def check_trace_rows(n):
    """Raise InsufficientDataError unless a log of n rows is long enough for
    lyapunov_trace."""
    if n < 3:
        raise InsufficientDataError("need at least 3 rows for central differences")


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
    check_trace_rows(n)
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
