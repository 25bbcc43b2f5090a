import math

import numpy as np
import pytest

from smcsim.controllers import (
    BoundaryLayerSMC,
    ClassicalSMC,
    DeltaAdaptiveParams,
    DeltaAdaptiveSMC,
    PlestanAdaptiveSMC,
    PlestanParams,
    UtkinAdaptiveSMC,
    UtkinParams,
)
from smcsim.core import ultimate_band
from smcsim.errors import ControllabilityError, ParameterError, TuningWarning

DT = 1e-4


def utkin_params(**kw):
    base = dict(tau=1e-3, alpha=0.95, nu=1.0, M=46.0, K_plus=23.0, epsilon=0.01, K0=1.0)
    base.update(kw)
    return UtkinParams(**base)


def plestan_params(**kw):
    base = dict(K_bar=3000.0, epsilon=0.0041421356237309515, kappa=0.01, K0=0.02)
    base.update(kw)
    return PlestanParams(**base)


def delta_params(**kw):
    base = dict(phi=0.01, rho=1.0, k=2.0, mu_hat0=0.001)
    base.update(kw)
    return DeltaAdaptiveParams(**base)


class TestClassical:
    def test_formula(self):
        c = ClassicalSMC(2.0)
        assert c.step(0.5, 0.0, 1.0, DT) == (-2.0, 2.0, 0.0)

    def test_zero_on_surface(self):
        u, _, _ = ClassicalSMC(2.0).step(0.0, 0.0, 1.0, DT)
        assert u == 0.0

    def test_negative_side(self):
        u, _, _ = ClassicalSMC(1.5).step(-0.1, 0.0, 1.0, DT)
        assert u == 1.5

    def test_bad_gain(self):
        with pytest.raises(ParameterError):
            ClassicalSMC(0.0)


class TestBoundaryLayer:
    def test_inside_layer(self):
        u, _, _ = BoundaryLayerSMC(2.0, 0.01).step(0.005, 0.0, 1.0, DT)
        assert u == -1.0

    def test_saturated(self):
        u, _, _ = BoundaryLayerSMC(2.0, 0.01).step(0.05, 0.0, 1.0, DT)
        assert u == -2.0

    def test_zero(self):
        u, _, _ = BoundaryLayerSMC(2.0, 0.01).step(0.0, 0.0, 1.0, DT)
        assert u == 0.0

    @pytest.mark.parametrize("phi", [0.0, -0.01, math.nan, math.inf])
    def test_rejects_bad_phi_once_at_construction(self, phi):
        with pytest.raises(ParameterError, match="phi"):
            BoundaryLayerSMC(2.0, phi)


class TestUtkin:
    def test_param_invariants(self):
        with pytest.raises(ParameterError):
            utkin_params(M=20.0)  # must exceed nu*K_plus
        with pytest.raises(ParameterError):
            utkin_params(alpha=1.0)
        with pytest.raises(ParameterError):
            utkin_params(epsilon=30.0)  # must stay below K_plus
        with pytest.raises(ParameterError):
            utkin_params(tau=0.0)

    def test_persistent_sliding_drives_gain_to_ceiling(self):
        # s held positive: z -> 1, delta -> 1 - alpha > 0, K climbs until the
        # ceiling barrier holds it near K_plus
        ctl = UtkinAdaptiveSMC(utkin_params())
        for _ in range(60_000):  # 6 s
            u, gain, _ = ctl.step(1.0, 0.0, 1.0, DT)
        assert ctl.z > 0.999
        assert abs(ctl.K - 23.0) < 0.1
        assert u == -gain  # switching against s > 0

    def test_dead_point_freezes_gain(self):
        # filter in steady state at z = alpha with s = 0: delta = 0 so the
        # growth term vanishes and K sits between the barriers
        ctl = UtkinAdaptiveSMC(utkin_params(tau=1e30))
        ctl.z = 0.95
        _, _, gain_rate = ctl.step(0.0, 0.0, 1.0, DT)
        assert gain_rate == 0.0

    def test_floor_barrier_pushes_up(self):
        p = utkin_params()
        ctl = UtkinAdaptiveSMC(p)
        ctl.K = p.epsilon / 2.0
        _, _, gain_rate = ctl.step(0.0, 0.0, 1.0, DT)
        # delta < 0 shrinks, but the floor barrier +M dominates
        assert gain_rate > 0.0
        assert math.isclose(gain_rate, -p.nu * p.epsilon / 2.0 + p.M, rel_tol=1e-12)

    def test_filter_stays_in_unit_interval(self):
        rng = np.random.default_rng(7)
        ctl = UtkinAdaptiveSMC(utkin_params(tau=5 * DT))
        for _ in range(1000):
            ctl.step(rng.uniform(-3.0, 3.0), 0.0, 1.0, DT)
            assert abs(ctl.z) <= 1.0

    def test_bad_dt(self):
        with pytest.raises(ParameterError):
            UtkinAdaptiveSMC(utkin_params()).step(0.1, 0.0, 1.0, 0.0)


class TestPlestan:
    def test_grows_outside_threshold(self):
        ctl = PlestanAdaptiveSMC(plestan_params())
        s = 0.1
        _, _, gain_rate = ctl.step(s, 0.0, 1.0, DT)
        assert gain_rate == 3000.0 * abs(s)

    def test_shrinks_inside_threshold(self):
        ctl = PlestanAdaptiveSMC(plestan_params(K0=1.0))
        s = 0.001  # inside epsilon
        _, _, gain_rate = ctl.step(s, 0.0, 1.0, DT)
        assert gain_rate == -3000.0 * abs(s)

    def test_reaches_floor_and_leaves_it(self):
        # Plestan et al. (2010): K_dot = kappa at K <= kappa, so the floor
        # does not latch. Inside epsilon the gain shrinks onto the floor.
        p = plestan_params(K0=0.011)
        ctl = PlestanAdaptiveSMC(p)
        for _ in range(100):
            ctl.step(0.001, 0.0, 1.0, DT)
            if ctl.K == p.kappa:
                break
        assert ctl.K == p.kappa
        _, gain, gain_rate = ctl.step(0.001, 0.0, 1.0, DT)
        assert (gain, gain_rate) == (p.kappa, p.kappa)
        assert ctl.K == p.kappa + DT * p.kappa

    def test_gain_never_below_floor(self):
        p = plestan_params(K0=0.011)
        ctl = PlestanAdaptiveSMC(p)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            ctl.step(rng.uniform(-0.002, 0.002), 0.0, 1.0, DT)
            assert ctl.K >= p.kappa

    def test_param_invariants(self):
        with pytest.raises(ParameterError):
            plestan_params(K0=0.005)  # below kappa
        with pytest.raises(ParameterError):
            plestan_params(K_bar=0.0)


class TestDeltaAdaptive:
    def test_control_formula(self):
        ctl = DeltaAdaptiveSMC(delta_params())
        u, gain, _ = ctl.step(1.0, 0.0, 1.0, DT)
        assert math.isclose(u, -2.001, rel_tol=1e-15)
        assert gain == 0.001

    def test_rate_zero_at_band(self):
        ctl = DeltaAdaptiveSMC(delta_params())
        eta = ultimate_band(0.01)
        _, _, gain_rate = ctl.step(eta, 0.0, 1.0, DT)
        assert abs(gain_rate) <= 2e-15

    def test_rate_saturates_at_inverse_rho(self):
        ctl = DeltaAdaptiveSMC(delta_params(rho=0.7))
        _, _, rate = ctl.step(1e6, 0.0, 1.0, DT)
        assert 0.0 < (1.0 / 0.7) - rate < 1e-6
        assert rate <= 1.0 / 0.7

    def test_feedforward_cancellation(self):
        ctl = DeltaAdaptiveSMC(delta_params(k=0.0, mu_hat0=1e-12))
        u, _, _ = ctl.step(0.0, 3.5, 2.0, DT)
        assert math.isclose(u, -3.5 / 2.0, rel_tol=1e-12)

    def test_zero_g_rejected(self):
        ctl = DeltaAdaptiveSMC(delta_params())
        with pytest.raises(ControllabilityError):
            ctl.step(0.1, 0.0, 0.0, DT)

    def test_gain_nonnegative_and_rate_bounded(self):
        rng = np.random.default_rng(13)
        for rho in (0.3, 0.7, 1.0, 2.5):
            ctl = DeltaAdaptiveSMC(delta_params(rho=rho, mu_hat0=1e-4))
            for _ in range(1000):
                _, gain, gain_rate = ctl.step(rng.uniform(-0.05, 0.05), 0.0, 1.0, 1e-2)
                assert gain >= 0.0
                assert abs(gain_rate) <= 1.0 / rho
            assert ctl.mu_hat >= 0.0

    def test_switching_term_opposes_s(self):
        rng = np.random.default_rng(17)
        ctl = DeltaAdaptiveSMC(delta_params())
        for _ in range(500):
            s = rng.uniform(-2.0, 2.0)
            u, gain, _ = ctl.step(s, 0.0, 1.0, DT)
            assert u * s <= -gain * abs(s) + 1e-18

    def test_tuning_warning_for_large_k(self):
        with pytest.warns(TuningWarning):
            delta_params(phi=0.01, k=500.0)  # 1/eta ~ 241

    def test_param_rejections(self):
        for bad in (dict(phi=0.0), dict(rho=-1.0), dict(k=-0.1), dict(mu_hat0=0.0)):
            with pytest.raises(ParameterError):
                delta_params(**bad)


ALL_CONTROLLERS = {
    "classical": lambda: ClassicalSMC(2.0),
    "boundary_layer": lambda: BoundaryLayerSMC(2.0, 0.01),
    "utkin": lambda: UtkinAdaptiveSMC(utkin_params()),
    "plestan": lambda: PlestanAdaptiveSMC(plestan_params()),
    "delta_adaptive": lambda: DeltaAdaptiveSMC(delta_params()),
}


@pytest.mark.parametrize("kind", sorted(ALL_CONTROLLERS))
def test_step_returns_plain_tuple_of_three_floats(kind):
    for s in (0.3, 0.0, -0.02):
        out = ALL_CONTROLLERS[kind]().step(s, 0.1, 1.0, DT)
        assert type(out) is tuple and len(out) == 3
        assert all(type(v) is float for v in out), out


@pytest.mark.parametrize("dt", [0.0, -DT, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", sorted(ALL_CONTROLLERS))
def test_every_step_rejects_bad_dt(kind, dt):
    with pytest.raises(ParameterError, match="dt must be positive and finite"):
        ALL_CONTROLLERS[kind]().step(0.1, 0.0, 1.0, dt)


class TestDeterminism:
    def test_bit_identical_sequences(self):
        rng = np.random.default_rng(19)
        inputs = [(rng.uniform(-1, 1), rng.uniform(-1, 1), 1.0) for _ in range(500)]

        def run():
            ctls = [make() for make in ALL_CONTROLLERS.values()]
            out = []
            for s, h, g in inputs:
                out.append(tuple(c.step(s, h, g, DT) for c in ctls))
            return out

        assert run() == run()

    def test_reset_restores_initial_state(self):
        ctl = DeltaAdaptiveSMC(delta_params())
        first = [ctl.step(0.5, 0.0, 1.0, DT) for _ in range(10)]
        ctl.reset()
        second = [ctl.step(0.5, 0.0, 1.0, DT) for _ in range(10)]
        assert first == second
