import math

import numpy as np
import pytest

from smcsim.errors import DomainError, ParameterError
from smcsim.plants import (
    LinearPlant,
    MultiSineSignal,
    RegulationPlant,
    SineReference,
    SquareSignal,
    TableSignal,
    TrackingPlant,
    verify_signal_bound,
)


def const_signal(value, bound=None):
    return TableSignal([0.0, 1e6], [value, value], bound if bound is not None else max(abs(value), 1.0))


def zero_signal():
    return MultiSineSignal([0.0], [1.0], [0.0], 1.0)


def smooth_signal():
    return MultiSineSignal([1.5, 0.8], [0.1, 0.13], [0.0, 1.0], 2.3)


def sample(plant, x, t):
    """(s, h, g, delta_f) at the state tuple x and the instant t, through the
    per-row call the runner makes."""
    return plant.sample(x[0], x[1] if len(x) > 1 else 0.0, plant.inputs([t])[0])


def block_inputs(plant):
    """plant.block_inputs over the instants t as the samples of a block
    whose rows take no RK4 step."""
    return lambda t: plant.block_inputs(np.asarray(t, dtype=float), 0, 1e-3)


class TestSignals:
    def test_multi_sine_zero_phase_at_origin(self):
        assert MultiSineSignal([1.0, 2.0], [0.5, 1.3], [0.0, 0.0], 3.0).value(0.0) == 0.0

    def test_multi_sine_value(self):
        sig = smooth_signal()
        t = 3.7
        expected = 1.5 * math.sin(0.1 * t) + 0.8 * math.sin(0.13 * t + 1.0)
        assert sig.value(t) == expected

    def test_square_levels(self):
        sig = SquareSignal(2.5, [(0.0, 2.0), (15.0, 1.0)], 2.0)
        assert sig.value(0.0) == 2.0
        assert sig.value(2.4999) == 2.0
        assert sig.value(2.5) == -2.0
        assert sig.value(5.0) == 2.0
        assert sig.value(15.0) == 1.0
        assert sig.value(17.5) == -1.0
        for t in np.linspace(0.0, 30.0, 5000):
            assert abs(sig.value(float(t))) in (1.0, 2.0)

    def test_square_schedule_validation(self):
        with pytest.raises(ParameterError):
            SquareSignal(2.5, [(1.0, 2.0)], 2.0)  # must start at 0
        with pytest.raises(ParameterError):
            SquareSignal(-1.0, [(0.0, 2.0)], 2.0)

    def test_square_rejects_repeated_start_times(self):
        # Only the last of two entries at t = 2 could ever apply.
        with pytest.raises(ParameterError, match="strictly increasing"):
            SquareSignal(0.5, [(0.0, 1.0), (2.0, 0.5), (2.0, 1.5)], 2.0)

    def test_table_interpolation(self):
        sig = TableSignal([0.0, 1.0, 3.0], [0.0, 2.0, -2.0], 2.0)
        assert sig.value(0.5) == 1.0
        assert sig.value(2.0) == 0.0
        assert sig.value(3.0) == -2.0

    def test_table_rejects_repeated_times(self):
        with pytest.raises(ParameterError, match="strictly increasing"):
            TableSignal([0.0, 0.5, 1.0, 1.0], [0.0, 0.5, 1.0, 1.0], 1.0)

    def test_table_outside_horizon(self):
        sig = TableSignal([0.0, 1.0], [0.0, 1.0], 1.0)
        with pytest.raises(DomainError):
            sig.value(1.5)
        with pytest.raises(DomainError):
            sig.value(-0.1)

    def test_table_from_csv(self, tmp_path):
        path = tmp_path / "wave.csv"
        path.write_text("# t, value\n0.0,0.5\n1.0,-0.5\n2.0,0.25\n")
        sig = TableSignal.from_csv(str(path), 0.5)
        assert sig.value(0.0) == 0.5
        assert sig.value(1.5) == -0.125

    def test_table_end_allowance(self):
        # 700*1e-3 rounds one ulp above 0.7, and sim.row_count admits it.
        sig = TableSignal([0.0, 0.7], [0.0, 1.0], 1.0)
        assert sig.values([700 * 1e-3, 0.7 + 5e-13]).tolist() == [1.0, 1.0]
        with pytest.raises(DomainError, match="outside table horizon"):
            sig.values([0.7 + 1e-9])

    def test_dense_bound_check(self):
        instants = np.arange(300_001) * 1e-4
        assert np.max(np.abs(verify_signal_bound(smooth_signal(), instants))) <= 2.3
        hot = MultiSineSignal([1.5], [0.5], [0.0], 1.0)
        with pytest.raises(ParameterError):
            verify_signal_bound(hot, instants)

    def test_bound_check_returns_values_and_names_first_breach(self):
        instants = np.arange(4000) * 1e-3
        sig = smooth_signal()
        assert np.array_equal(verify_signal_bound(sig, instants), sig.values(instants))
        hot = MultiSineSignal([1.5], [0.5], [0.0], 1.0)
        first = instants[np.argmax(np.abs(hot.values(instants)) > 1.0)]
        with pytest.raises(ParameterError) as err:
            verify_signal_bound(hot, instants)
        value = float(hot.values([first])[0])
        assert str(err.value) == (f"smooth_multi_sine exceeds its declared bound 1.0 at "
                                  f"t = {float(first)!r}: value {value!r}")

    def test_bound_check_refuses_nan(self):
        class Broken:
            kind, bound = "broken", 1.0

            def values(self, t):
                return np.full(len(t), math.nan)

        with pytest.raises(ParameterError, match="at t = 0.0: value nan"):
            verify_signal_bound(Broken(), [0.0, 1.0])

    def test_bound_check_names_earliest_breach_over_signals(self):
        # Instants out of order; the first signal breaks its bound at 2.0 and
        # 3.0, the second at 1.0 and 2.0: the breach named is at 1.0.
        late = MultiSineSignal([1.5], [0.5], [0.0], 1.0)
        early = MultiSineSignal([1.5], [1.0], [0.0], 1.0)
        instants = [3.0, 2.0, 1.0]
        with pytest.raises(ParameterError, match=r"at t = 2\.0: "):
            verify_signal_bound(late, instants)
        with pytest.raises(ParameterError, match=r"at t = 1\.0: value 1\.26"):
            verify_signal_bound(late, instants, early)
        ok = MultiSineSignal([0.5], [0.5], [0.0], 1.0)
        assert [v.tolist() for v in verify_signal_bound(ok, instants, ok)] == \
            [ok.values(instants).tolist()] * 2
        for mult, add in ((late, early), (early, late)):
            plant = TrackingPlant(mult, add, SineReference(1.0, 1.0), 2.0)
            for inputs in (plant.inputs, block_inputs(plant)):
                with pytest.raises(ParameterError, match=r"at t = 1\.0: value 1\.26"):
                    inputs(instants)

    def test_plant_inputs_check_every_signal(self):
        hot = MultiSineSignal([1.5], [0.5], [0.0], 1.0)
        ok = MultiSineSignal([0.5], [0.5], [0.0], 1.0)
        plants = [RegulationPlant(hot), LinearPlant(-1.0, 2.0, hot),
                  TrackingPlant(hot, ok, SineReference(1.0, 1.0), 2.0),
                  TrackingPlant(ok, hot, SineReference(1.0, 1.0), 2.0)]
        for plant in plants:
            assert plant.inputs([0.0, 1.0])  # within the bound
            for inputs in (plant.inputs, block_inputs(plant)):
                with pytest.raises(ParameterError, match="at t = 3.0"):
                    inputs([0.0, 3.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            MultiSineSignal([math.inf], [1.0], [0.0], 1.0)
        with pytest.raises(ParameterError):
            MultiSineSignal([1.0], [1.0], [0.0], -1.0)

    @pytest.mark.parametrize("build", [
        lambda: MultiSineSignal([10**400], [1.0], [0.0], 1.0),
        lambda: LinearPlant(10**400, 1.0, zero_signal()),
        lambda: SineReference(1.0, 10**400),
        lambda: SquareSignal(1.0, [(0.0, 10**400)], 1.0),
        lambda: TableSignal([0.0, 10**400], [0.0, 0.0], 1.0),
        lambda: LinearPlant(0.0, True, zero_signal()),
        lambda: TableSignal([0.0, True], [0.0, 0.0], 1.0),
    ], ids=["sine-amplitude-1e400", "linear-a-1e400", "reference-omega-1e400",
            "square-amplitude-1e400", "table-time-1e400", "linear-b-bool", "table-time-bool"])
    def test_ints_beyond_floats_and_bools_rejected(self, build):
        # The same number test as core._require_positive: no OverflowError
        # escapes, and a bool is not a number.
        with pytest.raises(ParameterError, match="must be finite numbers"):
            build()

    def test_deterministic(self):
        sig = smooth_signal()
        ts = np.linspace(0.0, 30.0, 1000)
        a = [sig.value(float(t)) for t in ts]
        b = [sig.value(float(t)) for t in ts]
        assert a == b


class TestRegulationPlant:
    def test_derivative_without_uncertainty(self):
        plant = RegulationPlant(zero_signal())
        assert plant.deriv((1.0,), 0.0, -2.0) == (-2.0,)

    def test_pure_drift(self):
        plant = RegulationPlant(const_signal(2.3))
        assert math.isclose(plant.deriv((0.0,), 5.0, 0.0)[0], 2.3, rel_tol=1e-12)

    def test_structural_identity(self):
        # deriv - u equals the logged uncertainty bitwise: the harness relies on it
        plant = RegulationPlant(smooth_signal())
        rng = np.random.default_rng(3)
        for _ in range(200):
            x, t, u = rng.uniform(-2, 2), rng.uniform(0, 30), rng.uniform(-5, 5)
            df = sample(plant, (x,), t)[3]
            assert plant.deriv((x,), t, u)[0] == df + u

    def test_surface(self):
        plant = RegulationPlant(zero_signal())
        assert sample(plant, (1.0,), 0.0)[:3] == (1.0, 0.0, 1.0)
        assert sample(plant, (0.0,), 3.0)[0] == 0.0
        assert sample(plant, (-0.3,), 1.0)[0] == -0.3

    def test_true_bound(self):
        assert RegulationPlant(smooth_signal()).true_bound == 2.3


class TestLinearPlant:
    def test_surface_carries_drift_and_gain(self):
        plant = LinearPlant(1.5, 2.0, zero_signal())
        s, h, g, _ = sample(plant, (0.4,), 0.0)
        assert s == 0.4 and g == 2.0
        assert math.isclose(h, 0.6, rel_tol=1e-15)

    def test_zero_input_gain_rejected(self):
        with pytest.raises(ParameterError):
            LinearPlant(1.0, 0.0, zero_signal())


class TestTrackingPlant:
    def make(self, mult=None, add=None, lam=6.0):
        return TrackingPlant(
            mult if mult is not None else zero_signal(),
            add if add is not None else zero_signal(),
            SineReference(3.0, 0.4 * math.pi),
            lam,
        )

    def test_nominal_equilibrium(self):
        plant = self.make()
        assert plant.deriv((0.0, 0.0), 0.0, 0.0) == (0.0, 0.0)

    def test_reduces_to_nominal_model(self):
        plant = self.make()
        rng = np.random.default_rng(5)
        for _ in range(100):
            x1, x2, u = rng.uniform(-3, 3, 3)
            t = rng.uniform(0, 30)
            d = plant.deriv((x1, x2), t, u)
            assert d[0] == x2
            assert math.isclose(d[1], x1 * x2 + math.sin(x1) + u, rel_tol=1e-15)

    def test_doubled_multiplicative_factor(self):
        plant = self.make(mult=const_signal(1.0))  # dx1 = 2
        d = plant.deriv((math.pi / 2.0, 0.0), 0.0, 0.0)
        assert abs(d[1] - math.sin(math.pi)) < 1e-12

    def test_perfect_tracking_zeroes_surface(self):
        plant = self.make()
        r = plant.reference
        for t in (0.0, 0.3, 1.7):
            s = sample(plant, (r.value(t), r.rate(t)), t)[0]
            assert abs(s) < 1e-12

    def test_surface_formula(self):
        plant = self.make()
        r = plant.reference
        t = 0.9
        s = sample(plant, (r.value(t) + 0.1, r.rate(t)), t)[0]
        assert math.isclose(s, 0.6, rel_tol=1e-9)

    def test_reference_derivatives(self):
        r = SineReference(3.0, 0.4 * math.pi)
        h = 1e-6
        for t in (0.0, 0.4, 2.3, 11.0):
            fd1 = (r.value(t + h) - r.value(t - h)) / (2 * h)
            assert math.isclose(fd1, r.rate(t), rel_tol=1e-8, abs_tol=1e-8)
        h = 1e-4
        for t in (0.0, 0.4, 2.3, 11.0):
            fd2 = (r.rate(t + h) - r.rate(t - h)) / (2 * h)
            assert math.isclose(fd2, r.accel(t), rel_tol=1e-6, abs_tol=1e-6)

    def test_matching_condition(self):
        # uncertainty only enters the actuated channel: the x1 equation is
        # untouched by either signal
        noisy = self.make(
            mult=MultiSineSignal([0.5], [0.3], [0.2], 0.5),
            add=MultiSineSignal([1.2], [0.7], [0.0], 1.2),
        )
        clean = self.make()
        rng = np.random.default_rng(9)
        for _ in range(100):
            x = (rng.uniform(-3, 3), rng.uniform(-4, 4))
            t, u = rng.uniform(0, 30), rng.uniform(-5, 5)
            assert noisy.deriv(x, t, u)[0] == clean.deriv(x, t, u)[0] == x[1]

    def test_uncertainty_value(self):
        plant = self.make(
            mult=MultiSineSignal([0.5], [0.3], [0.2], 0.5),
            add=MultiSineSignal([1.2], [0.7], [0.0], 1.2),
        )
        rng = np.random.default_rng(21)
        for _ in range(100):
            x = (rng.uniform(-3, 3), rng.uniform(-4, 4))
            t = rng.uniform(0, 30)
            u = rng.uniform(-5, 5)
            # deriv equals nominal + matched uncertainty in the x2 channel
            nominal = x[0] * x[1] + math.sin(x[0]) + u
            assert math.isclose(
                plant.deriv(x, t, u)[1], nominal + sample(plant, x, t)[3], rel_tol=1e-12, abs_tol=1e-12
            )

    def test_no_declared_bound(self):
        assert self.make().true_bound is None

    def test_bad_lambda(self):
        with pytest.raises(ParameterError):
            self.make(lam=0.0)


class TestSurfaceDerivativeConsistency:
    """h, g from the surfaces match finite differences of s along nominal flow."""

    def check(self, plant, nominal_deriv, states, rng):
        for x in states:
            t = float(rng.uniform(0.1, 20.0))
            u = float(rng.uniform(-3.0, 3.0))
            _, h, g, _ = sample(plant, x, t)
            eps = 1e-6
            f = nominal_deriv(x, t, u)
            xp = tuple(xi + eps * fi for xi, fi in zip(x, f))
            xm = tuple(xi - eps * fi for xi, fi in zip(x, f))
            fd = (sample(plant, xp, t + eps)[0] - sample(plant, xm, t - eps)[0]) / (2 * eps)
            assert math.isclose(fd, h + g * u, rel_tol=1e-5, abs_tol=1e-7)

    def test_regulation(self):
        plant = RegulationPlant(zero_signal())
        rng = np.random.default_rng(23)
        states = [(float(v),) for v in rng.uniform(-2, 2, 100)]
        self.check(plant, lambda x, t, u: (u,), states, rng)

    def test_tracking(self):
        plant = TrackingPlant(zero_signal(), zero_signal(), SineReference(3.0, 0.4 * math.pi), 6.0)
        rng = np.random.default_rng(29)
        states = [(float(a), float(b)) for a, b in rng.uniform(-3, 3, (100, 2))]

        def nominal(x, t, u):
            return (x[1], x[0] * x[1] + math.sin(x[0]) + u)

        self.check(plant, nominal, states, rng)

    def test_linear(self):
        plant = LinearPlant(0.8, 1.7, zero_signal())
        rng = np.random.default_rng(31)
        states = [(float(v),) for v in rng.uniform(-2, 2, 100)]
        self.check(plant, lambda x, t, u: (plant.a * x[0] + plant.b * u,), states, rng)
