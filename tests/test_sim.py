import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from smcsim.controllers import ClassicalSMC, DeltaAdaptiveSMC
from smcsim import plants, sim
from smcsim.core import overshoot_bound, ultimate_band
from smcsim.errors import (
    DomainError,
    InsufficientDataError,
    ParameterError,
    SimulationDiverged,
)
from smcsim.plants import (
    LinearPlant,
    MultiSineSignal,
    RegulationPlant,
    SineReference,
    TrackingPlant,
    verify_signal_bound,
)
from smcsim.sim import (
    IntegrationSettings,
    Scenario,
    TrajectoryLog,
    compute_metrics,
    lyapunov_decay_bound,
    lyapunov_trace,
    row_count,
    run_scenario,
    verify_ultimate_bound,
    verify_band_excursion,
    write_csv,
)

from oracles import worst_case_response, worst_case_run


def zero_signal():
    return MultiSineSignal([0.0], [1.0], [0.0], 1.0)


def smooth_signal():
    return MultiSineSignal([1.5, 0.8], [0.1, 0.13], [0.0, 1.0], 2.3)


def smooth_scenario(t_end=5.0, dt=1e-4, x0=1.0):
    return Scenario(
        name="smooth",
        plant=RegulationPlant(smooth_signal()),
        controller=DeltaAdaptiveSMC(phi=0.01, rho=1.0, k=2.0, mu_hat0=0.001),
        x0=(x0,),
        settings=IntegrationSettings(dt=dt, t_end=t_end),
    )


class TestRowCount:
    @pytest.mark.parametrize(
        "t_end,dt,expected",
        [(30.0, 1e-4, 300_001), (1.0, 3e-4, 3334), (2.0, 1e-3, 2001), (0.5, 0.5, 2)],
    )
    def test_counts(self, t_end, dt, expected):
        assert row_count(t_end, dt) == expected

    def test_integer_dt_accepted(self):
        # dt takes a positive finite int like every other parameter.
        settings = IntegrationSettings(dt=1, t_end=30)
        assert row_count(settings.t_end, settings.dt) == 31


class TestRunScenario:
    def test_grid_and_shapes(self):
        log = run_scenario(smooth_scenario(t_end=0.5))
        assert len(log) == 5001
        assert np.all(np.diff(log.t) > 0)
        assert log.t[0] == 0.0
        assert math.isclose(log.t[-1], 0.5, rel_tol=1e-12)
        assert log.x.shape == (5001, 1)
        for col in (log.s, log.u, log.gain, log.gain_rate, log.delta_f, log.V, log.Vprime):
            assert np.all(np.isfinite(col))

    def test_zero_uncertainty_classical_monotone_descent(self):
        sc = Scenario(
            name="descent",
            plant=RegulationPlant(zero_signal()),
            controller=ClassicalSMC(2.0),
            x0=(1.0,),
            settings=IntegrationSettings(dt=1e-3, t_end=0.4),
        )
        log = run_scenario(sc)
        a = np.abs(log.s)
        band = 2.0 * 2.0 * 1e-3  # one switching step after crossing
        outside = a > band
        assert np.all(np.diff(a)[outside[:-1]] < 0)

    def test_structural_identity_on_log(self):
        sc = smooth_scenario(t_end=0.2)
        log = run_scenario(sc)
        sig = sc.plant.signal
        for i in range(0, len(log), 97):
            t = log.t[i]
            assert log.delta_f[i] == sig.value(t)
            d = sc.plant.deriv((log.x[i, 0],), t, log.u[i])[0]
            assert d == log.delta_f[i] + log.u[i]

    def test_determinism_bit_identical(self):
        a = run_scenario(smooth_scenario(t_end=1.0))
        b = run_scenario(smooth_scenario(t_end=1.0))
        for name in ("t", "x", "s", "u", "gain", "gain_rate", "delta_f", "V", "Vprime"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_controller_reused_after_reset(self):
        sc = smooth_scenario(t_end=0.5)
        a = run_scenario(sc)
        b = run_scenario(sc)  # run_scenario resets the controller
        assert np.array_equal(a.s, b.s)

    def test_gain_columns_for_adaptive_run(self):
        log = run_scenario(smooth_scenario(t_end=1.0))
        assert np.all(log.gain >= 0.0)
        assert np.all(np.abs(log.gain_rate) <= 1.0)
        assert np.all(log.V >= 0.0)
        assert np.all(log.Vprime >= 0.0)

    def test_halving_dt_changes_terminal_state_at_first_order(self):
        # during the smooth reaching phase (before band entry) the flow is
        # regular, so terminal x moves by O(dt)
        end = {}
        for dt in (1e-3, 5e-4):
            log = run_scenario(smooth_scenario(t_end=1.0, dt=dt))
            end[dt] = log.x[-1, 0]
        assert abs(end[1e-3] - end[5e-4]) <= 1e-3

    def test_blow_up_aborts_with_time(self):
        sc = Scenario(
            name="boom",
            plant=LinearPlant(60.0, 1.0, zero_signal()),
            controller=ClassicalSMC(0.001),
            x0=(1.0,),
            settings=IntegrationSettings(dt=0.01, t_end=30.0),
        )
        with pytest.raises(SimulationDiverged) as err:
            run_scenario(sc)
        exc = err.value
        assert 0.0 < exc.time <= 30.0
        # The report names the row at exc.time and the state, u and gain of
        # the row before it, the last one with a finite state.
        assert exc.time == exc.row * 0.01
        assert len(exc.state) == 1 and math.isfinite(exc.state[0])
        assert exc.u == -0.001 and exc.gain == 0.001
        assert f"(row {exc.row}; last finite state x = [{exc.state[0]!r}]" in str(exc)

    @pytest.mark.parametrize("column, ctl, row", [
        ("V", DeltaAdaptiveSMC(phi=1e-30, rho=1e-300, k=2.0, mu_hat0=0.001), 2),
        ("Vprime", DeltaAdaptiveSMC(phi=0.01, rho=1.0, k=1e-300, mu_hat0=1e10), 0),
    ])
    def test_overflowing_lyapunov_column_is_divergence(self, column, ctl, row):
        # The state, s and u stay finite; the column overflows without a
        # numpy warning and the report names it with that row's values.
        sc = Scenario("overflow", RegulationPlant(smooth_signal()), ctl, (1.0,),
                      IntegrationSettings(dt=1e-4, t_end=1e-3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SimulationDiverged) as err:
                run_scenario(sc)
        exc = err.value
        assert (exc.row, exc.time) == (row, row * 1e-4)
        assert math.isfinite(exc.state[0]) and math.isfinite(exc.u) and math.isfinite(exc.gain)
        assert str(exc) == (f"{column} became non-finite at t = {row * 1e-4:.6g} s "
                            f"(row {row}; state x = [{exc.state[0]!r}], u = {exc.u!r}, "
                            f"gain = {exc.gain!r})")

    @pytest.mark.parametrize("plant, x0", [
        (RegulationPlant(MultiSineSignal([1.5], [0.5], [0.0], 1.0)), (0.0,)),
        (TrackingPlant(MultiSineSignal([0.5], [0.5], [0.0], 1.0),
                       MultiSineSignal([1.5], [0.5], [0.0], 1.0), SineReference(1.0, 1.0), 2.0),
         (0.0, 0.0)),
    ], ids=["regulation", "tracking"])
    def test_bound_breach_names_earliest_instant_of_block(self, plant, x0):
        # The midpoint 73.5*dt breaks the bound before the sample 74*dt.
        sc = Scenario("hot", plant, ClassicalSMC(1.0), x0, IntegrationSettings(dt=0.0199, t_end=5.0))
        with pytest.raises(ParameterError) as err:
            run_scenario(sc)
        assert str(err.value) == ("smooth_multi_sine exceeds its declared bound 1.0 at "
                                  "t = 1.46265: value 1.0017846081172268")

    def test_divergence_survives_pickling(self):
        # compare sends a child's exception to its parent by pickle.
        exc = SimulationDiverged(1.5, row=3, state=(1.0,), u=2.0, gain=3.0)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is SimulationDiverged and str(back) == str(exc)
        assert (back.time, back.row, back.state, back.u, back.gain) == (1.5, 3, (1.0,), 2.0, 3.0)
        custom = pickle.loads(pickle.dumps(SimulationDiverged(0.25, "custom message")))
        assert (str(custom), custom.time, custom.row) == ("custom message", 0.25, None)

    @pytest.mark.parametrize("x0, row, controlled", [
        ((0.0, 1e200), 1, True),     # a stage value overflows inside advance
        ((1.7e308, 0.0), 0, False),  # x1*dx1 overflows inside sample
    ], ids=["advance", "sample"])
    def test_math_domain_error_is_divergence(self, x0, row, controlled):
        # math.sin(inf) raises ValueError; the runner reports it as a
        # divergence from the last finite state instead.
        plant = TrackingPlant(MultiSineSignal([0.5], [1.0], [1.0], 0.5), zero_signal(),
                              SineReference(1.0, 1.0), 4.0)
        sc = Scenario("overflow", plant, ClassicalSMC(1.0), x0,
                      IntegrationSettings(dt=1e-4, t_end=0.01))
        with pytest.raises(SimulationDiverged) as err:
            run_scenario(sc)
        exc = err.value
        assert isinstance(exc.__cause__, ValueError)
        assert (exc.row, exc.time, exc.state) == (row, row * 1e-4, x0)
        assert (exc.gain is not None) == controlled and (exc.u is not None) == controlled

    def test_non_finite_surface_reports_the_state_alone(self):
        # s = e_rate + lambda*e overflows on row 0 while the state and every
        # sine argument stay finite: the report names the state, without
        # the u and gain the controller computed from that s.
        plant = TrackingPlant(MultiSineSignal([0.1], [1.0], [0.0], 0.1), zero_signal(),
                              SineReference(1.0, 1.0), 4.0)
        sc = Scenario("steep", plant, ClassicalSMC(1.0), (1e308, 1e308),
                      IntegrationSettings(dt=1e-4, t_end=0.01))
        with pytest.raises(SimulationDiverged) as err:
            run_scenario(sc)
        exc = err.value
        assert (exc.row, exc.time, exc.state, exc.u, exc.gain) == (0, 0.0, (1e308, 1e308),
                                                                   None, None)
        assert exc.__cause__ is None
        assert str(exc) == ("state became non-finite at t = 0 s (row 0; last finite state "
                            "x = [1e+308, 1e+308])")

    @pytest.mark.parametrize("error", [DomainError, ParameterError])
    def test_package_value_errors_pass_through(self, error):
        class Failing(ClassicalSMC):
            def step(self, s, h, g, dt):
                raise error("from the controller")

        sc = Scenario("failing", RegulationPlant(zero_signal()), Failing(1.0), (1.0,),
                      IntegrationSettings(dt=0.01, t_end=1.0))
        with pytest.raises(error, match="from the controller"):
            run_scenario(sc)

    def test_block_inputs_stay_bounded(self, monkeypatch):
        # A block holds BLOCK rows, so no vectorized call sees more than
        # 3*BLOCK instants (samples, RK4 midpoints and ends); the log is the
        # one a single block spanning every row gives.
        def run(block):
            monkeypatch.setattr(sim, "BLOCK", block)
            sizes = []

            def counted(signal, t, *others):
                sizes.append(len(t))
                return verify_signal_bound(signal, t, *others)

            monkeypatch.setattr(plants, "verify_signal_bound", counted)
            return run_scenario(smooth_scenario(t_end=1.0, dt=1e-3)), max(sizes)

        log, widest = run(64)  # 16 blocks of the 1001 rows
        assert widest == 3 * 64
        whole, widest = run(10**6)
        assert widest == 1001 + 2 * 1000  # no RK4 step follows the final sample
        for name in ("x", "s", "u", "gain", "gain_rate", "delta_f", "V", "Vprime"):
            assert np.array_equal(getattr(log, name), getattr(whole, name)), name

    def test_validation(self):
        with pytest.raises(ParameterError):
            IntegrationSettings(dt=0.0)
        with pytest.raises(ParameterError):
            IntegrationSettings(dt=1.0, t_end=0.5)
        with pytest.raises(ParameterError):
            Scenario("bad", RegulationPlant(zero_signal()), ClassicalSMC(1.0),
                     (1.0, 2.0), IntegrationSettings())


class Kick(ClassicalSMC):
    """ClassicalSMC(K) whose step returns u = value on one row."""

    def __init__(self, row, value, K=1.0):
        super().__init__(K)
        self.row, self.value = row, value

    def reset(self):
        self.calls = 0

    def step(self, s, h, g, dt):
        u, gain, rate = super().step(s, h, g, dt)
        self.calls += 1
        return (self.value if self.calls == self.row + 1 else u), gain, rate


EDGE_PLANTS = {
    "regulation": lambda: (RegulationPlant(MultiSineSignal([0.5], [1.0], [0.3], 0.5)), (0.5,)),
    # Within its bound up to t = 1.0946, in the second block: a breach after
    # a divergence at the end of the first block.
    "regulation-breach": lambda: (RegulationPlant(MultiSineSignal([0.6], [0.9], [0.0], 0.5)),
                                  (0.5,)),
    "linear": lambda: (LinearPlant(-1.0, 2.0, MultiSineSignal([0.5], [1.0], [0.3], 0.5)), (0.5,)),
    "tracking": lambda: (TrackingPlant(MultiSineSignal([0.1], [0.7], [0.3], 0.1),
                                       MultiSineSignal([0.5], [1.0], [0.3], 0.5),
                                       SineReference(0.5, 1.2), 4.0), (0.3, -0.2)),
}

# (plant, kicked row, its u) -> the report (row, state, u, cause), or None
# where the run ends, as the per-row runner gave them. At dt = 1e-3 the
# 2049 rows are two blocks, rows 0-1023 and 1024-2047, and the run's last
# row alone. u = 1.7e308 overflows the next RK4 step; on the tracking plant
# u = 1e50 leaves a huge finite state whose own step takes math.sin of an
# overflowed value.
EDGE_CASES = {
    "regulation-state-first-row": ("regulation", 1023, 1.7e308,
                                   (1024, (3.414760153360092e-05,), 1.7e308, None)),
    "regulation-state-last-row": ("regulation", 2046, 1.7e308,
                                  (2047, (-0.0004009708100390999,), 1.7e308, None)),
    "regulation-control-last-row": ("regulation", 2047, math.nan,
                                    (2047, (0.0009559934179715138,), math.nan, None)),
    "regulation-control-run-end": ("regulation", 2048, math.nan,
                                   (2048, (0.000312607358262463,), math.nan, None)),
    "regulation-no-step-at-run-end": ("regulation", 2048, 1.7e308, None),
    "regulation-state-before-breach": ("regulation-breach", 1023, 1.7e308,
                                       (1024, (0.00015794191400854776,), 1.7e308, None)),
    "linear-state-first-row": ("linear", 1023, 1.7e308,
                               (1024, (0.002316507581344663,), 1.7e308, None)),
    "linear-control-last-row": ("linear", 2047, math.nan,
                                (2047, (-0.001272400016458658,), math.nan, None)),
    "linear-no-step-at-run-end": ("linear", 2048, 1.7e308, None),
    "tracking-sin-first-row": ("tracking", 1022, 1e50,
                               (1024, (2.261038375671781e+83, 1.226971540529732e+127), -1.0,
                                ValueError)),
    "tracking-sin-after-first-row": ("tracking", 1023, 1e50,
                                     (1025, (2.2611158395679188e+83, 1.2270555905793869e+127),
                                      -1.0, ValueError)),
    "tracking-sin-run-end": ("tracking", 2046, 1e50,
                             (2048, (2.290808671151134e+83, 1.2594665797696856e+127), -1.0,
                              ValueError)),
    "tracking-no-step-at-run-end": ("tracking", 2047, 1e50, None),
    "tracking-control-run-end": ("tracking", 2048, math.nan,
                                 (2048, (1.483138521840313, 1.819878673894901), math.nan, None)),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_divergence_at_block_edges(case, tmp_path):
    # Each case runs twice: without a CSV, and streaming one, which must give
    # the same report and leave no file.
    plant_name, row, value, expected = EDGE_CASES[case]
    plant, x0 = EDGE_PLANTS[plant_name]()
    sc = Scenario("edge", plant, Kick(row, value), x0, IntegrationSettings(dt=1e-3, t_end=2.048))
    csv = tmp_path / "edge.csv"
    for csv_path in (None, csv):
        if expected is None:
            log = run_scenario(sc, csv_path)
            assert len(log) == 2049 and log.u[row] == value and np.all(np.isfinite(log.x))
            continue
        with pytest.raises(SimulationDiverged) as err:
            run_scenario(sc, csv_path)
        exc = err.value
        at, state, u, cause = expected
        assert (exc.row, exc.time, exc.state, repr(exc.u), exc.gain) == (at, at * 1e-3, state,
                                                                         repr(u), 1.0)
        assert type(exc.__cause__) is (cause or type(None))
        assert str(exc) == (f"state became non-finite at t = {at * 1e-3:.6g} s (row {at}; "
                            f"last finite state x = {list(state)!r}, u = {u!r}, gain = 1.0)")
        assert not csv.exists()


VERIFY_COLUMNS = ("t", "s", "gain")  # the columns smcsim verify keeps


def divergence_report(sc, **kwargs):
    with pytest.raises(SimulationDiverged) as err:
        run_scenario(sc, **kwargs)
    exc = err.value
    return (exc.row, exc.time, exc.state, repr(exc.u), repr(exc.gain), str(exc),
            type(exc.__cause__))


# (plant, its Kick gain, kicked u): the tracking plant needs K = 5 to stay
# finite until the kick, and u = 1e50 makes it take math.sin of an
# overflowed value two rows on.
SPAN_EDGE_KICKS = [("regulation", 1.0, 1.7e308), ("regulation", 1.0, math.nan),
                   ("linear", 1.0, 1.7e308), ("linear", 1.0, math.nan),
                   ("tracking", 5.0, 1.7e308), ("tracking", 5.0, math.nan),
                   ("tracking", 5.0, 1e50)]


@pytest.mark.parametrize("row", [8191, 8192, 8193])
@pytest.mark.parametrize("plant_name, K, value", SPAN_EDGE_KICKS,
                         ids=[f"{p}-{v!r}" for p, _, v in SPAN_EDGE_KICKS])
def test_divergence_at_span_edges(plant_name, K, value, row, tmp_path):
    # Row 8192 opens the second span of CHUNK rows, so a report there reads
    # u and gain of row 8191 in the span before. Holding u (and with keep
    # ("t",) x and s too) one span at a time, or streaming a CSV, must give
    # the report of the full log, and leave no file.
    assert sim.CHUNK == 8192

    def scenario():
        plant, x0 = EDGE_PLANTS[plant_name]()
        return Scenario("edge", plant, Kick(row, value, K), x0,
                        IntegrationSettings(dt=1e-3, t_end=8.2))

    csv = tmp_path / "edge.csv"
    full = divergence_report(scenario())
    assert row <= full[0] <= row + 2
    for kwargs in ({"keep": VERIFY_COLUMNS}, {"keep": ("t",)}, {"csv_path": csv}):
        assert divergence_report(scenario(), **kwargs) == full, kwargs
    assert not csv.exists()


def synthetic_log(u, s=None, dt=1e-3):
    n = len(u)
    zeros = np.zeros(n)
    return TrajectoryLog(
        t=np.arange(n) * dt,
        x=np.zeros((n, 1)),
        s=np.asarray(s, dtype=float) if s is not None else zeros.copy(),
        u=np.asarray(u, dtype=float),
        gain=zeros.copy(),
        gain_rate=zeros.copy(),
        delta_f=zeros.copy(),
        V=zeros.copy(),
        Vprime=zeros.copy(),
        meta={"dt": dt},
    )


class TestMetrics:
    def test_constant_input_has_zero_chattering(self):
        log = synthetic_log(np.full(4001, 1.7), dt=1e-3)
        m = compute_metrics(log, 0.01)
        assert m.chattering_index == 0.0

    def test_alternating_input_definitional_value(self):
        K, dt, n = 2.0, 1e-3, 4001
        u = K * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        m = compute_metrics(synthetic_log(u, dt=dt), 0.01)
        assert math.isclose(m.chattering_index, 2.0 * K / dt, rel_tol=1e-12)

    def test_reach_time_and_band_stats(self):
        log = run_scenario(smooth_scenario(t_end=5.0))
        m = compute_metrics(log, 0.01)
        eta = ultimate_band(0.01)
        assert m.reach_time_to_band is not None and 0.0 < m.reach_time_to_band < 3.0
        assert 0.0 < m.steady_band_mean <= m.steady_band_max
        assert m.overshoot_into_band is not None and m.overshoot_into_band < 5 * eta
        assert m.max_gain > 0.0
        assert m.ultimate_bound_satisfied is None

    def test_without_phi_band_fields_absent(self):
        log = synthetic_log(np.zeros(4001))
        m = compute_metrics(log, None)
        assert m.reach_time_to_band is None
        assert m.overshoot_into_band is None

    def test_insufficient_horizon(self):
        log = synthetic_log(np.zeros(10), dt=1e-3)  # cannot certify a 0.5 s dwell
        with pytest.raises(InsufficientDataError):
            compute_metrics(log, 0.01)


class TestLyapunovTrace:
    def test_decay_certificate_outside_band(self):
        log = run_scenario(smooth_scenario(t_end=5.0))
        tr = lyapunov_trace(log, mu=2.3, rho=1.0, phi=0.01, k=2.0)
        assert int(tr.checked.sum()) > 1000
        assert len(tr.isolated_violations) == 0

    def test_bound_is_zero_at_band_edge(self):
        eta = ultimate_band(0.01)
        bound = lyapunov_decay_bound(np.full(5, eta), phi=0.01, k=2.0)
        assert np.all(np.abs(bound) < 1e-14)

    def test_needs_three_rows(self):
        log = synthetic_log(np.zeros(2), dt=1e-3)
        with pytest.raises(InsufficientDataError):
            lyapunov_trace(log, 1.0, 1.0, 0.01, 2.0)


class TestPostProcessingMemory:
    def test_passes_allocate_less_than_one_column(self):
        # Each pass walks the log in chunks: its traced peak (numpy reports
        # its buffers to tracemalloc) stays below one column of the log.
        n = 200_001
        rng = np.random.default_rng(0)
        s = 0.02 * np.sin(np.arange(n) * 1e-3) + 1e-3 * rng.standard_normal(n)
        log = synthetic_log(rng.standard_normal(n), s=s, dt=1e-4)
        log.gain = 1.0 + rng.random(n)
        ob = overshoot_bound(2.3, 1.0, 0.01)
        passes = {
            "compute_metrics": lambda: compute_metrics(log, 0.01),
            "lyapunov_trace": lambda: lyapunov_trace(log, 2.3, 1.0, 0.01, 2.0),
            "verify_ultimate_bound": lambda: verify_ultimate_bound(log, 2.0, 1.0, 2.3, 0.6),
            "verify_band_excursion": lambda: verify_band_excursion(log, ob.m, ob.delta, 0.01),
        }
        peaks = {}
        tracemalloc.start()
        try:
            for name, run in passes.items():
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                result = run()
                peaks[name] = tracemalloc.get_traced_memory()[1] - base
                del result
        finally:
            tracemalloc.stop()
        assert all(peak < n * 8 for peak in peaks.values()), peaks


class TestUltimateBound:
    def test_b_equal_v0_gives_T_zero(self):
        log = run_scenario(smooth_scenario(t_end=2.0))
        k, rho, mu = 2.0, 1.0, 2.3
        v0 = abs(log.s[0]) + log.gain[0] / k
        r = verify_ultimate_bound(log, k, rho, mu, v0)
        assert r.T == 0.0
        assert r.holds is True
        assert not r.applicable  # b must be strictly below v0

    def test_midpoint_bound_holds_on_preset_dynamics(self):
        log = run_scenario(smooth_scenario(t_end=5.0))
        k, rho, mu = 2.0, 1.0, 2.3
        sigma = mu + 1.0 / (k * rho)
        v0 = abs(log.s[0]) + log.gain[0] / k
        b = 0.5 * (sigma / k + v0)
        r = verify_ultimate_bound(log, k, rho, mu, b)
        assert math.isclose(r.T, math.log(2.0) / k, rel_tol=1e-12)
        assert r.holds is True
        assert r.max_vprime_after <= 1.05 * b
        # the published sufficient condition is violated by this preset
        assert not r.applicable

    def test_k_zero_not_applicable(self):
        log = run_scenario(smooth_scenario(t_end=0.5))
        r = verify_ultimate_bound(log, 0.0, 1.0, 2.3, 1.0)
        assert not r.applicable
        assert r.holds is None

    def test_pole_horizon_ends_before_T(self):
        log = run_scenario(smooth_scenario(t_end=0.5))
        k, rho, mu = 2.0, 1.0, 2.3
        b = (mu + 1.0 / (k * rho)) / k  # sigma/k: T is infinite
        r = verify_ultimate_bound(log, k, rho, mu, b)
        assert r.T == math.inf
        assert (r.applicable, r.holds, r.max_vprime_after) == (False, None, None)

    def test_applicable_case_holds(self):
        # x0 = 3 puts v0 = 3.0005 above sigma/k = 1.4, with b their midpoint.
        log = run_scenario(smooth_scenario(t_end=5.0, x0=3.0))
        k, rho, mu = 2.0, 1.0, 2.3
        b = 0.5 * ((mu + 1.0 / (k * rho)) / k + log.Vprime[0])
        r = verify_ultimate_bound(log, k, rho, mu, b)
        assert r.applicable and r.reason == ""
        assert math.isclose(r.T, math.log(2.0) / k, rel_tol=1e-12)
        assert r.limit == b * 1.05
        assert r.holds is True and r.max_vprime_after <= r.limit


class TestBandExcursion:
    def test_preset_run_reports_excursion(self):
        log = run_scenario(smooth_scenario(t_end=5.0))
        ob = overshoot_bound(2.3, 1.0, 0.01)
        r = verify_band_excursion(log, ob.m, ob.delta, 0.01)
        assert r.applicable
        assert r.holds is True
        assert r.entry_time > 0.0
        assert r.max_excursion < ob.delta

    def test_never_reaching_band_is_not_applicable(self):
        sc = Scenario(
            name="far",
            plant=RegulationPlant(zero_signal()),
            controller=ClassicalSMC(0.001),
            x0=(1.0,),
            settings=IntegrationSettings(dt=1e-3, t_end=1.0),
        )
        r = verify_band_excursion(run_scenario(sc), 1.0, 0.1, 0.01)
        assert not r.applicable

    def test_infeasible_m_is_not_applicable(self):
        log = run_scenario(smooth_scenario(t_end=0.5))
        r = verify_band_excursion(log, math.nan, math.nan, 0.01)
        assert not r.applicable


class TestWorstCaseRun:
    def test_matches_closed_form_and_delta(self):
        mu, rho, phi = 1.0, 1.0, 0.01
        eta = ultimate_band(phi)
        ob = overshoot_bound(mu, rho, phi)
        t, s, gain = worst_case_run(eta, 0.0, mu, ob.m, eta, dt=1e-4)
        closed = np.array([worst_case_response(ti, eta, mu, 0.0, ob.m, eta) for ti in t])
        amp = np.max(np.abs(closed))
        assert np.max(np.abs(s - closed)) / amp <= 1e-6
        assert np.max(s) <= ob.delta + 1e-9
        # companion gain matches mu - s_dot at the grid interior
        s_dot = (s[2:] - s[:-2]) / (2 * 1e-4)
        assert np.max(np.abs((mu - s_dot) - gain[1:-1])) < 1e-4

    def test_bad_m(self):
        with pytest.raises(ParameterError):
            worst_case_run(0.0, 0.0, 1.0, -1.0, 0.004)


class TestLogContract:
    def test_logged_V_matches_recomputation(self):
        from smcsim.sim import lyapunov_value

        log = run_scenario(smooth_scenario(t_end=1.0))
        recomputed = lyapunov_value(log.s, log.gain, 2.3, 1.0, 0.01)
        assert np.array_equal(log.V, recomputed)
        k = 2.0
        assert np.array_equal(log.Vprime, np.abs(log.s) + log.gain / k)

    def test_baseline_runs_zero_lyapunov_columns(self):
        sc = Scenario(
            name="baseline",
            plant=RegulationPlant(smooth_signal()),
            controller=ClassicalSMC(4.6),
            x0=(1.0,),
            settings=IntegrationSettings(dt=1e-3, t_end=2.0),
        )
        log = run_scenario(sc)
        assert np.all(log.V == 0.0) and np.all(log.Vprime == 0.0)

    def test_adaptive_needs_less_gain_than_classical(self):
        # same scenario, classical gain fixed at twice the bound: the adaptive
        # law reaches on a comparable timescale with a much smaller peak gain
        adaptive = run_scenario(smooth_scenario(t_end=5.0))
        sc = Scenario(
            name="classical",
            plant=RegulationPlant(smooth_signal()),
            controller=ClassicalSMC(2.0 * 2.3),
            x0=(1.0,),
            settings=IntegrationSettings(dt=1e-4, t_end=5.0),
        )
        classical = run_scenario(sc)
        ma = compute_metrics(adaptive, 0.01)
        mc = compute_metrics(classical, 0.01)
        assert ma.max_gain < 0.5 * mc.max_gain
        assert ma.reach_time_to_band is not None and mc.reach_time_to_band is not None
        assert ma.reach_time_to_band < 10.0 * mc.reach_time_to_band


class TestCsv:
    def test_round_trip_full_precision(self, tmp_path):
        log = run_scenario(smooth_scenario(t_end=0.2))
        path = tmp_path / "log.csv"
        write_csv(log, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,x0,s,u,gain,gain_rate,delta_f,V,Vprime"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data, log.as_matrix())

    def test_identical_runs_identical_files(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_scenario(smooth_scenario(t_end=0.3)), p1)
        write_csv(run_scenario(smooth_scenario(t_end=0.3)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("kwargs, missing", [
        ({"csv_path": "streamed.csv"}, "gain_rate, delta_f, V, Vprime"),
        ({"keep": VERIFY_COLUMNS}, "u, gain_rate, delta_f, V, Vprime"),
    ], ids=["streamed", "verify"])
    def test_log_lacking_columns_makes_no_file(self, tmp_path, kwargs, missing):
        kwargs = {k: tmp_path / v if k == "csv_path" else v for k, v in kwargs.items()}
        log = run_scenario(smooth_scenario(t_end=0.3), **kwargs)
        path = tmp_path / "b.csv"
        with pytest.raises(InsufficientDataError,
                           match=f"without its {missing} column"):
            write_csv(log, path)
        assert not path.exists()


def tracking_scenario(t_end):
    plant, x0 = EDGE_PLANTS["tracking"]()
    return Scenario("tracking", plant, DeltaAdaptiveSMC(phi=0.01, rho=1.0, k=2.0, mu_hat0=0.001),
                    x0, IntegrationSettings(dt=1e-4, t_end=t_end))


class TestStreamedCsv:
    """run_scenario with a CSV path: the same metrics from a log that holds
    only the columns they read. test_divergence_at_block_edges and the
    compare tests in test_cli.py check that a failed run leaves no file."""

    @pytest.mark.parametrize("make", [lambda: smooth_scenario(t_end=2.0),
                                      lambda: tracking_scenario(2.0)],
                             ids=["first-order", "tracking"])
    def test_metrics_equal_the_full_log(self, tmp_path, make):
        full = run_scenario(make())
        streamed = run_scenario(make(), csv_path=tmp_path / "log.csv")
        assert compute_metrics(streamed, 0.01) == compute_metrics(full, 0.01)
        for name in ("t", "x", "s", "u", "gain"):
            assert np.array_equal(getattr(streamed, name), getattr(full, name)), name
        for name in ("gain_rate", "delta_f", "V", "Vprime"):
            assert getattr(streamed, name) is None, name

    @pytest.mark.parametrize("keep", [VERIFY_COLUMNS, ("t",), ("s", "gain_rate"),
                                      ("u", "delta_f", "V", "Vprime")],
                             ids=["verify", "t", "s-rate", "u-df-V"])
    @pytest.mark.parametrize("make", [lambda: smooth_scenario(t_end=1.0),
                                      lambda: tracking_scenario(1.0)],
                             ids=["first-order", "tracking"])
    def test_kept_columns_equal_the_full_log(self, tmp_path, make, keep):
        # 10 001 rows: the columns not kept start their span over once.
        full = run_scenario(make())
        part = run_scenario(make(), keep=keep)
        kept = {"t", *keep}
        if full.x.shape[1] == 1 and kept & {"x", "s"}:
            kept |= {"x", "s"}  # s is a view of x
        for name in sim.COLUMNS:
            if name in kept:
                assert np.array_equal(getattr(part, name), getattr(full, name)), name
            else:
                assert getattr(part, name) is None, name
        streamed = tmp_path / "log.csv"
        run_scenario(make(), csv_path=streamed, keep=keep)
        written = tmp_path / "full.csv"
        write_csv(full, written)
        assert streamed.read_bytes() == written.read_bytes()

    def test_first_order_surface_is_a_view_of_the_state(self, tmp_path):
        for log in (run_scenario(smooth_scenario(t_end=0.5)),
                    run_scenario(smooth_scenario(t_end=0.5), csv_path=tmp_path / "log.csv")):
            assert np.shares_memory(log.s, log.x)
            assert np.array_equal(log.s, log.x[:, 0])
        log = run_scenario(tracking_scenario(0.5))
        assert not np.shares_memory(log.s, log.x)
