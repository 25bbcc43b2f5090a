import math
import os
import subprocess
import sys

import numpy as np
import pytest

from smcsim.core import (
    _certificate,
    BAND_RATIO,
    adaptation_shape,
    delta_surface,
    overshoot_bound,
    sat,
    sgn,
    ultimate_band,
)
from smcsim.errors import ParameterError
from smcsim.sim import TrajectoryLog, verify_ultimate_bound

from oracles import worst_case_response

RNG_SEED = 20260810
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestSgn:
    def test_positive(self):
        assert sgn(2.5) == 1

    def test_zero_is_zero(self):
        assert sgn(0.0) == 0

    def test_tiny_negative(self):
        assert sgn(-1e-30) == -1


class TestSat:
    def test_interior_is_linear(self):
        assert sat(0.005, 0.01) == 0.5

    def test_clamps_high(self):
        assert sat(0.02, 0.01) == 1.0

    def test_clamps_low_odd(self):
        assert sat(-0.03, 0.01) == -1.0


class TestDeltaSurface:
    def test_zero_at_origin(self):
        assert delta_surface(0.0, 0.01) == 0.0

    def test_zero_at_layer_edge(self):
        # the two terms cancel exactly at |s| = phi
        assert delta_surface(0.01, 0.01) == 0.0
        assert delta_surface(-0.01, 0.01) == 0.0

    def test_value_at_band(self):
        # at s = eta the value is -(sqrt(2)-1)^2 * phi by algebra
        phi = 0.01
        expected = -(BAND_RATIO**2) * phi
        assert math.isclose(delta_surface(ultimate_band(phi), phi), expected, rel_tol=1e-12)
        assert math.isclose(delta_surface(0.004142, 0.01), -0.001716, abs_tol=1e-6)

    def test_far_field(self):
        phi = 0.01
        assert math.isclose(delta_surface(100.0, phi), 100.0 - 2 * phi, rel_tol=1e-6)

    def test_array_matches_scalar(self):
        # one definition serves the controllers (floats) and the log (arrays)
        s = np.linspace(-0.05, 0.05, 101)
        for f in (delta_surface, adaptation_shape):
            assert np.array_equal(f(s, 0.01), [f(float(v), 0.01) for v in s])


class TestAdaptationShape:
    def test_minus_one_at_origin(self):
        assert adaptation_shape(0.0, 0.03) == -1.0

    def test_zero_at_band(self):
        assert abs(adaptation_shape(BAND_RATIO * 0.03, 0.03)) <= 2e-15

    def test_far_value(self):
        assert math.isclose(adaptation_shape(0.99, 0.01), 0.9998, rel_tol=1e-12)

    def test_bounded_everywhere(self):
        for s in (0.0, 1e-300, 1e300, -1e300, 5.0, -5.0, 1e20):
            assert abs(adaptation_shape(s, 0.01)) <= 1.0


class TestUltimateBand:
    def test_values(self):
        assert math.isclose(ultimate_band(0.01), 0.0041421, abs_tol=1e-7)
        assert math.isclose(ultimate_band(0.03), 0.0124264, abs_tol=1e-7)
        assert ultimate_band(1.0) == BAND_RATIO


class TestCertificateArithmetic:
    def test_worked_example(self):
        # sigma = 0.5 + 1/(2*1) = 1.0, sigma/k = 0.5, midpoint b = 0.75
        sigma, floor, b, T = _certificate(0.5, 1.0, 2.0, 1.0005)
        assert (sigma, floor, b) == (1.0, 0.5, 0.75025)
        assert T == math.log(2.0) / 2.0

    def test_limits(self):
        assert _certificate(0.5, 1.0, 2.0, 1.0005, b=0.5)[3] == math.inf  # b at sigma/k
        assert _certificate(0.5, 1.0, 2.0, 1.0005, b=2.0)[3] < 0.0  # b above v0
        assert math.isnan(_certificate(0.5, 1.0, 2.0, 0.4, b=0.6)[3])  # sigma/k between v0 and b
        _, _, b, T = _certificate(0.5, 1.0, 2.0, math.nan)
        assert math.isnan(b) and math.isnan(T)


def flat_log(v0, n=11, dt=0.1):
    """A log whose V' = |s| + gain/k is v0 on every row, whatever k."""
    return TrajectoryLog(t=np.arange(n) * dt, x=np.zeros((n, 1)), s=np.full(n, v0),
                         u=np.zeros(n), gain=np.zeros(n), gain_rate=np.zeros(n),
                         delta_f=np.zeros(n), V=np.zeros(n), Vprime=np.zeros(n),
                         meta={"dt": dt})


class TestReachTimeBound:
    """T of core._certificate, and the certificate's preconditions
    (sigma/k < b < v0, v0 > sigma/k), which verify_ultimate_bound judges:
    outside them it reports the check not applicable."""

    def test_zero_at_top(self):
        assert _certificate(0.5, 1.0, 2.0, 1.5, b=1.5)[3] == 0.0

    def test_worked_example(self):
        # sigma = 0.5 + 1/(2*1) = 1.0, sigma/k = 0.5,
        # T = 0.5*ln(0.5005/0.25) = 0.3470733404465144
        T = _certificate(0.5, 1.0, 2.0, 1.0005, b=0.75)[3]
        assert math.isclose(T, 0.3470733404465144, rel_tol=1e-12)

    def test_pole_rejected(self):
        r = verify_ultimate_bound(flat_log(1.0005), 2.0, 1.0, 0.5, 0.5)  # b == sigma/k
        assert (r.applicable, r.holds, r.T) == (False, None, math.inf)
        assert "v0 = 1.0005 does not satisfy v0 > sigma/k = 0.5" in r.reason

    def test_b_above_v0_rejected(self):
        r = verify_ultimate_bound(flat_log(1.0), 2.0, 1.0, 0.5, 1.1)
        assert not r.applicable
        assert (r.T, r.holds, r.max_vprime_after) == (0.0, True, 1.0)  # measured all the same

    def test_infeasible_v0_rejected(self):
        r = verify_ultimate_bound(flat_log(0.4), 2.0, 1.0, 0.5, 0.45)
        assert not r.applicable
        assert "v0 = 0.4 does not satisfy v0 > sigma/k = 0.5" in r.reason
        # v0 and b both below sigma/k: T is defined, and V' is measured after it
        assert r.T == math.log(2.0) / 2.0 and r.holds is True

    @pytest.mark.parametrize("k,rho,mu", [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0)])
    def test_bad_parameters(self, k, rho, mu):
        r = verify_ultimate_bound(flat_log(10.0), k, rho, mu, 5.0)
        assert (r.applicable, r.holds, r.reason) == (False, None, "k and rho must be positive")

    def test_monotone_in_b_and_v0(self):
        def T(v0, k, rho, mu, b):
            return _certificate(mu, rho, k, v0, b)[3]

        rng = np.random.default_rng(RNG_SEED)
        for _ in range(1000):
            k = rng.uniform(0.1, 5.0)
            rho = rng.uniform(0.1, 5.0)
            mu = rng.uniform(0.0, 3.0)
            floor = (mu + 1.0 / (k * rho)) / k
            v0 = floor + rng.uniform(0.1, 5.0)
            b1 = floor + rng.uniform(0.01, v0 - floor - 0.005)
            b2 = b1 + rng.uniform(1e-3, v0 - b1)
            assert T(v0, k, rho, mu, b2) <= T(v0, k, rho, mu, b1)
            v0_hi = v0 + rng.uniform(0.1, 2.0)
            assert T(v0_hi, k, rho, mu, b1) >= T(v0, k, rho, mu, b1)


class TestOvershootBound:
    def test_zero_mu_collapses_to_eta(self):
        res = overshoot_bound(0.0, 1.0, 0.01)
        assert res.feasible
        assert math.isclose(res.delta, ultimate_band(0.01), rel_tol=1e-9)
        # every m below the strict ceiling is feasible at mu = 0
        assert res.m < math.sqrt(2.0) / 0.01
        assert math.sqrt(2.0) / 0.01 - res.m < 1e-8

    def test_bisection_result_satisfies_constraints(self):
        mu, rho, phi = 1.0, 1.0, 0.01
        res = overshoot_bound(mu, rho, phi)
        assert res.feasible
        eta = ultimate_band(phi)
        root = math.sqrt(res.m)
        assert res.m < math.sqrt(2.0) / (rho * phi)
        assert mu * root <= adaptation_shape(eta + mu / root, phi) / rho
        # largest-ness: slightly bigger m violates the rate constraint
        m_up = res.m * (1.0 + 1e-4)
        assert mu * math.sqrt(m_up) > adaptation_shape(eta + mu / math.sqrt(m_up), phi) / rho
        assert math.isclose(
            res.delta, math.sqrt((2 * eta) ** 2 + mu**2 / res.m) - eta, rel_tol=1e-12
        )

    def test_ceiling_enforced(self):
        res = overshoot_bound(1.0, 0.7, 0.03)
        assert res.feasible
        assert res.m < math.sqrt(2.0) / (0.7 * 0.03) < 67.35

    def test_infeasible_reported_not_raised(self):
        res = overshoot_bound(1e7, 1.0, 0.01)
        assert not res.feasible
        assert math.isnan(res.m) and math.isnan(res.delta)

    def test_bisection_ends_where_floats_run_out(self):
        # Above m = 2**19 adjacent floats lie more than 1e-10 apart, and the
        # ceiling sqrt(2)/(rho*phi) overflows when rho*phi is subnormal
        # (1e-310) and divides by 0 when it underflows (1e-330); the
        # bisection must end anyway. Run in a child so a hang fails the test.
        cases = [(2.3, 1e-4, 0.01), (0.0, 1e-4, 0.01), (1.0, 1e-300, 1e-10),
                 (1.0, 1e-300, 1e-30)]
        code = ("from smcsim.core import overshoot_bound\n"
                f"for args in {cases!r}:\n"
                "    print(repr(tuple(overshoot_bound(*args))))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=60, env=env)
        assert res.returncode == 0, res.stderr
        tight, free, *capped = (eval(line, {"nan": math.nan})
                                for line in res.stdout.splitlines())
        assert tight[2] and math.isclose(tight[0], 1146820.44, rel_tol=1e-8)
        # at mu = 0 every m below the ceiling is feasible: m is the float below it
        assert free[2] and math.nextafter(free[0], math.inf) == math.sqrt(2.0) / (1e-4 * 0.01)
        assert free[1] == pytest.approx(ultimate_band(0.01), rel=1e-12)
        # Where the ceiling has no float value it is capped at the largest
        # float, and an m below the cap meets the feasibility inequality.
        for (mu, rho, phi), (m, delta, feasible) in zip(cases[2:], capped):
            assert feasible and 0.0 < m <= sys.float_info.max and math.isfinite(delta)
            root = math.sqrt(m)
            assert mu * root <= adaptation_shape(ultimate_band(phi) + mu / root, phi) / rho

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            overshoot_bound(-1.0, 1.0, 0.01)

    def test_phi_whose_square_underflows_is_refused(self):
        # adaptation_shape divides by (|s| + phi)**2, 0 at s = 0 for such a phi.
        with pytest.raises(ParameterError, match=r"phi = 1e-200 is too small"):
            overshoot_bound(0.0, 1.0, 1e-200)
        assert overshoot_bound(0.0, 1.0, 1.6e-162).feasible
        with pytest.raises(ParameterError):
            overshoot_bound(1.0, 0.0, 0.01)


class TestWorstCaseResponse:
    def test_initial_value(self):
        assert math.isclose(
            worst_case_response(0.0, 0.7, 1.0, 0.2, 2.0, 0.004), 0.7, rel_tol=1e-14
        )

    def test_half_period(self):
        eta = ultimate_band(0.01)
        m = 0.5
        val = worst_case_response(math.pi / math.sqrt(m), eta, 1.0, 0.0, m, eta)
        assert math.isclose(val, -3.0 * eta, rel_tol=1e-9)

    def test_peak_bound(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(1000):
            eta = rng.uniform(1e-4, 0.1)
            s0 = rng.uniform(-2 * eta, 4 * eta)
            mu = rng.uniform(0.0, 3.0)
            mh0 = rng.uniform(0.0, mu) if mu > 0 else 0.0
            m = rng.uniform(0.01, 10.0)
            period = 2 * math.pi / math.sqrt(m)
            ts = np.linspace(0.0, period, 400)
            vals = [worst_case_response(t, s0, mu, mh0, m, eta) for t in ts]
            amp = math.sqrt((s0 + eta) ** 2 + (mu - mh0) ** 2 / m)
            assert max(vals) <= amp - eta + 1e-12

    def test_bad_m(self):
        with pytest.raises(ParameterError):
            worst_case_response(0.1, 0.0, 1.0, 0.0, -1.0, 0.004)

    def test_satisfies_worst_case_dynamics(self):
        # finite differences of the closed form against the affine pair
        # s_dot = mu - mu_hat (companion mu_hat = mu - s_dot),
        # mu_hat_dot = m*(s + eta)
        mu, mh0, m, eta, s0 = 1.3, 0.2, 0.8, 0.05, 0.09
        h = 1e-3  # second differences: keep roundoff eps/h^2 below the 1e-6 target
        rng = np.random.default_rng(RNG_SEED + 2)
        for t in rng.uniform(0.0, 2 * math.pi / math.sqrt(m), 100):
            sm = worst_case_response(t - h, s0, mu, mh0, m, eta)
            s0_ = worst_case_response(t, s0, mu, mh0, m, eta)
            sp = worst_case_response(t + h, s0, mu, mh0, m, eta)
            s_ddot = (sp - 2 * s0_ + sm) / (h * h)
            # mu_hat_dot = -s_ddot must equal m*(s + eta)
            expect = m * (s0_ + eta)
            assert math.isclose(-s_ddot, expect, rel_tol=1e-6, abs_tol=1e-6)


class TestShapeProperties:
    def test_odd_and_even_symmetry(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        for _ in range(1000):
            phi = rng.uniform(1e-4, 1.0)
            s = rng.uniform(-10 * phi, 10 * phi)
            assert delta_surface(-s, phi) == -delta_surface(s, phi)
            assert adaptation_shape(-s, phi) == adaptation_shape(s, phi)

    def test_sign_structure(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(1000):
            phi = rng.uniform(1e-4, 1.0)
            eta = ultimate_band(phi)
            s = rng.uniform(-5 * phi, 5 * phi)
            if abs(abs(s) - eta) < 1e-9 * phi:
                continue
            val = adaptation_shape(s, phi)
            if abs(s) < eta:
                assert val < 0.0
            else:
                assert val > 0.0

    def test_derivative_identity(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        count = 0
        while count < 100:
            phi = rng.uniform(1e-3, 1.0)
            s = rng.uniform(-6 * phi, 6 * phi)
            h = 1e-6 * (abs(s) + phi)
            if abs(s) < 3 * h:  # keep the stencil on one side of the |s| kink
                continue
            count += 1
            fd = (delta_surface(s + h, phi) - delta_surface(s - h, phi)) / (2 * h)
            assert math.isclose(fd, adaptation_shape(s, phi), rel_tol=1e-6)

    def test_monotone_in_abs_s(self):
        phi = 0.02
        values = [adaptation_shape(s, phi) for s in np.linspace(0.0, 10 * phi, 500)]
        assert all(b >= a for a, b in zip(values, values[1:]))
