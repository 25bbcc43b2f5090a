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
from smcsim.config import build_scenario, load_config, normalize_config, preset_path
from smcsim.core import ultimate_band
from smcsim.errors import ConfigError, ParameterError, TuningWarning

DT = 1e-4


def utkin(**kw):
    base = dict(tau=1e-3, alpha=0.95, nu=1.0, M=46.0, K_plus=23.0, epsilon=0.01, K0=1.0)
    base.update(kw)
    return UtkinAdaptiveSMC(**base)


def plestan(**kw):
    base = dict(K_bar=3000.0, epsilon=0.0041421356237309515, kappa=0.01, K0=0.02)
    base.update(kw)
    return PlestanAdaptiveSMC(**base)


def delta(**kw):
    base = dict(phi=0.01, rho=1.0, k=2.0, mu_hat0=0.001)
    base.update(kw)
    return DeltaAdaptiveSMC(**base)


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
            utkin(M=20.0)  # must exceed nu*K_plus
        with pytest.raises(ParameterError):
            utkin(alpha=1.0)
        with pytest.raises(ParameterError):
            utkin(epsilon=30.0)  # must stay below K_plus
        with pytest.raises(ParameterError):
            utkin(tau=0.0)

    def test_persistent_sliding_drives_gain_to_ceiling(self):
        # s held positive: z -> 1, delta -> 1 - alpha > 0, K climbs until the
        # ceiling barrier holds it near K_plus
        ctl = utkin()
        for _ in range(60_000):  # 6 s
            u, gain, _ = ctl.step(1.0, 0.0, 1.0, DT)
        assert ctl.z > 0.999
        assert abs(ctl.K - 23.0) < 0.1
        assert u == -gain  # switching against s > 0

    def test_dead_point_freezes_gain(self):
        # filter in steady state at z = alpha with s = 0: delta = 0 so the
        # growth term vanishes and K sits between the barriers
        ctl = utkin(tau=1e30)
        ctl.z = 0.95
        _, _, gain_rate = ctl.step(0.0, 0.0, 1.0, DT)
        assert gain_rate == 0.0

    def test_floor_barrier_pushes_up(self):
        ctl = utkin()
        ctl.K = ctl.epsilon / 2.0
        _, _, gain_rate = ctl.step(0.0, 0.0, 1.0, DT)
        # delta < 0 shrinks, but the floor barrier +M dominates
        assert gain_rate > 0.0
        assert math.isclose(gain_rate, -ctl.nu * ctl.epsilon / 2.0 + ctl.M, rel_tol=1e-12)

    def test_filter_stays_in_unit_interval(self):
        rng = np.random.default_rng(7)
        ctl = utkin(tau=5 * DT)
        for _ in range(1000):
            ctl.step(rng.uniform(-3.0, 3.0), 0.0, 1.0, DT)
            assert abs(ctl.z) <= 1.0

    def test_bad_dt(self):
        # The step takes dt as given. A zero dt is rejected when the scenario
        # is built, and the default tau = 10*dt it would imply is rejected too.
        cfg = load_config(preset_path("regulation-smooth-utkin"))
        cfg["integration"]["dt"] = 0.0
        with pytest.raises(ConfigError, match="dt must be a positive finite number"):
            build_scenario(cfg)
        with pytest.raises(ParameterError, match="tau"):
            utkin(tau=10.0 * 0.0)


class TestPlestan:
    def test_grows_outside_threshold(self):
        ctl = plestan()
        s = 0.1
        _, _, gain_rate = ctl.step(s, 0.0, 1.0, DT)
        assert gain_rate == 3000.0 * abs(s)

    def test_shrinks_inside_threshold(self):
        ctl = plestan(K0=1.0)
        s = 0.001  # inside epsilon
        _, _, gain_rate = ctl.step(s, 0.0, 1.0, DT)
        assert gain_rate == -3000.0 * abs(s)

    def test_reaches_floor_and_leaves_it(self):
        # Plestan et al. (2010): K_dot = kappa at K <= kappa, so the floor
        # does not latch. Inside epsilon the gain shrinks onto the floor.
        ctl = plestan(K0=0.011)
        for _ in range(100):
            ctl.step(0.001, 0.0, 1.0, DT)
            if ctl.K == ctl.kappa:
                break
        assert ctl.K == ctl.kappa
        _, gain, gain_rate = ctl.step(0.001, 0.0, 1.0, DT)
        assert (gain, gain_rate) == (ctl.kappa, ctl.kappa)
        assert ctl.K == ctl.kappa + DT * ctl.kappa

    def test_gain_never_below_floor(self):
        ctl = plestan(K0=0.011)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            ctl.step(rng.uniform(-0.002, 0.002), 0.0, 1.0, DT)
            assert ctl.K >= ctl.kappa

    def test_param_invariants(self):
        with pytest.raises(ParameterError):
            plestan(K0=0.005)  # below kappa
        with pytest.raises(ParameterError):
            plestan(K_bar=0.0)


class TestDeltaAdaptive:
    def test_control_formula(self):
        ctl = delta()
        u, gain, _ = ctl.step(1.0, 0.0, 1.0, DT)
        assert math.isclose(u, -2.001, rel_tol=1e-15)
        assert gain == 0.001

    def test_rate_zero_at_band(self):
        ctl = delta()
        eta = ultimate_band(0.01)
        _, _, gain_rate = ctl.step(eta, 0.0, 1.0, DT)
        assert abs(gain_rate) <= 2e-15

    def test_rate_saturates_at_inverse_rho(self):
        ctl = delta(rho=0.7)
        _, _, rate = ctl.step(1e6, 0.0, 1.0, DT)
        assert 0.0 < (1.0 / 0.7) - rate < 1e-6
        assert rate <= 1.0 / 0.7

    def test_feedforward_cancellation(self):
        ctl = delta(k=0.0, mu_hat0=1e-12)
        u, _, _ = ctl.step(0.0, 3.5, 2.0, DT)
        assert math.isclose(u, -3.5 / 2.0, rel_tol=1e-12)

    def test_gain_nonnegative_and_rate_bounded(self):
        rng = np.random.default_rng(13)
        for rho in (0.3, 0.7, 1.0, 2.5):
            ctl = delta(rho=rho, mu_hat0=1e-4)
            for _ in range(1000):
                _, gain, gain_rate = ctl.step(rng.uniform(-0.05, 0.05), 0.0, 1.0, 1e-2)
                assert gain >= 0.0
                assert abs(gain_rate) <= 1.0 / rho
            assert ctl.mu_hat >= 0.0

    def test_switching_term_opposes_s(self):
        rng = np.random.default_rng(17)
        ctl = delta()
        for _ in range(500):
            s = rng.uniform(-2.0, 2.0)
            u, gain, _ = ctl.step(s, 0.0, 1.0, DT)
            assert u * s <= -gain * abs(s) + 1e-18

    def test_tuning_warning_for_large_k(self):
        with pytest.warns(TuningWarning):
            delta(phi=0.01, k=500.0)  # 1/eta ~ 241

    def test_param_rejections(self):
        for bad in (dict(phi=0.0), dict(phi=1e-200), dict(phi=9.5e153), dict(phi=1e200),
                    dict(rho=-1.0), dict(k=-0.1), dict(mu_hat0=0.0)):
            with pytest.raises(ParameterError):
                delta(**bad)

    @pytest.mark.parametrize("k", [True, 10**400, -0.1, math.nan, math.inf],
                             ids=["bool", "1e400", "negative", "nan", "inf"])
    def test_k_rejected_through_the_shared_check(self, k):
        # True is an int, and 10**400 compares below inf but has no float value.
        with pytest.raises(ParameterError, match=r"k must be a non-negative finite number"):
            delta(k=k)


@pytest.mark.parametrize("build", [lambda: ClassicalSMC(10**400),
                                   lambda: BoundaryLayerSMC(2.0, 10**400),
                                   lambda: delta(rho=10**400)],
                         ids=["classical K", "boundary_layer phi", "delta_adaptive rho"])
def test_int_beyond_the_float_range_rejected(build):
    with pytest.raises(ParameterError, match="must be a positive finite number"):
        build()


ALL_CONTROLLERS = {
    "classical": lambda: ClassicalSMC(2.0),
    "boundary_layer": lambda: BoundaryLayerSMC(2.0, 0.01),
    "utkin": utkin,
    "plestan": plestan,
    "delta_adaptive": delta,
}

# One positive parameter of each law passed as True: bool is an int subclass,
# so the check must exclude it by name.
WITH_TRUE = {
    "classical": lambda: ClassicalSMC(True),
    "boundary_layer": lambda: BoundaryLayerSMC(2.0, True),
    "utkin": lambda: utkin(K0=True),
    "plestan": lambda: plestan(K_bar=True),
    "delta_adaptive": lambda: delta(rho=True),
}


@pytest.mark.parametrize("kind", sorted(WITH_TRUE))
def test_bool_parameter_rejected(kind):
    with pytest.raises(ParameterError, match="must be a positive finite number, got True"):
        WITH_TRUE[kind]()


@pytest.mark.parametrize("kind", sorted(ALL_CONTROLLERS))
def test_step_returns_plain_tuple_of_three_floats(kind):
    for s in (0.3, 0.0, -0.02):
        out = ALL_CONTROLLERS[kind]().step(s, 0.1, 1.0, DT)
        assert type(out) is tuple and len(out) == 3
        assert all(type(v) is float for v in out), out


PRESET_OF = {
    "classical": "regulation-smooth-classical",
    "boundary_layer": "regulation-smooth-boundary-layer",
    "utkin": "regulation-smooth-utkin",
    "plestan": "compare-smooth-plestan-fast",
    "delta_adaptive": "regulation-smooth",
}


# The steps take dt as given: a bad dt is rejected when a scenario is built,
# before any controller is made, so no step of any controller ever sees it.
@pytest.mark.parametrize("dt", [0.0, -DT, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", sorted(ALL_CONTROLLERS))
def test_every_step_rejects_bad_dt(kind, dt, monkeypatch):
    cfg = load_config(preset_path(PRESET_OF[kind]))
    assert cfg["controller"]["kind"] == kind
    cfg["integration"]["dt"] = dt

    def never(*args, **kwargs):
        raise AssertionError(f"{kind} controller built with dt = {dt!r}")

    monkeypatch.setattr(type(ALL_CONTROLLERS[kind]()), "__init__", never)
    with pytest.raises(ConfigError, match=r"integration(\.dt: must be finite|: dt must be a positive finite number)"):
        build_scenario(cfg)


@pytest.mark.parametrize("kind", sorted(PRESET_OF))
def test_controller_carries_its_config_fields(kind):
    cfg = normalize_config(load_config(preset_path(PRESET_OF[kind])))
    ctl = build_scenario(cfg).controller
    fields = {name: v for name, v in cfg["controller"].items() if name not in ("kind", "note")}
    assert ctl.kind == kind and fields
    assert {name: getattr(ctl, name) for name in fields} == fields


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
        ctl = delta()
        first = [ctl.step(0.5, 0.0, 1.0, DT) for _ in range(10)]
        ctl.reset()
        second = [ctl.step(0.5, 0.0, 1.0, DT) for _ in range(10)]
        assert first == second

    @pytest.mark.parametrize("kind", sorted(ALL_CONTROLLERS))
    def test_reset_matches_a_fresh_controller(self, kind):
        rng = np.random.default_rng(23)
        inputs = [(rng.uniform(-0.02, 0.02), rng.uniform(-1, 1), 1.0) for _ in range(300)]
        used = ALL_CONTROLLERS[kind]()
        for s, h, g in inputs:
            used.step(s, h, g, DT)
        used.reset()
        fresh = ALL_CONTROLLERS[kind]()
        assert ([used.step(s, h, g, DT) for s, h, g in inputs]
                == [fresh.step(s, h, g, DT) for s, h, g in inputs])
