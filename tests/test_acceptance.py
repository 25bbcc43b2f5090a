"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

The preset runs are session fixtures (see conftest) so each scenario is
simulated once and shared across criteria.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from smcsim.controllers import (
    PlestanAdaptiveSMC,
    PlestanParams,
    UtkinAdaptiveSMC,
    UtkinParams,
)
from smcsim.core import (
    adaptation_shape,
    delta_surface,
    overshoot_bound,
    ultimate_band,
)
from smcsim.sim import compute_metrics, lyapunov_trace

from oracles import worst_case_response, worst_case_run

SEED = 20240801


def report(number, label, ok, detail):
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


class TestCriterion1:
    def test_ultimate_band_convergence(self, smooth_run):
        scenario, log, elapsed = smooth_run
        eta = ultimate_band(0.01)
        window = np.abs(log.s[log.t >= 20.0])
        max_s, mean_s = float(np.max(window)), float(np.mean(window))
        ok = (max_s <= 3.0 * eta) and (0.3 * eta <= mean_s <= 2.0 * eta) and elapsed < 5.0
        assert report(
            1, "ultimate band",
            ok,
            f"max|s|={max_s:.5g} (<= {3*eta:.5g}), mean|s|={mean_s:.5g} "
            f"(in [{0.3*eta:.5g}, {2*eta:.5g}]), runtime={elapsed:.2f}s (< 5 s)",
        )


class TestCriterion2:
    def test_learning_rate_and_gain_bounds_exact(self, smooth_run, square_run,
                                                 tracking_run, compare_runs):
        runs = {
            "regulation-smooth": (smooth_run[1], 1.0),
            "regulation-square": (square_run[1], 0.7),
            "tracking": (tracking_run[1], 0.7),
            "compare-adaptive": (compare_runs["adaptive"][1], 1.0),
        }
        ok = True
        worst = 0.0
        for name, (log, rho) in runs.items():
            limit = 1.0 / rho
            rate_ok = bool(np.all(np.abs(log.gain_rate) <= limit))
            gain_ok = bool(np.all(log.gain >= 0.0))
            ok = ok and rate_ok and gain_ok
            worst = max(worst, float(np.max(np.abs(log.gain_rate) * rho)))
        assert report(
            2, "learning-rate bound",
            ok,
            f"every row of {len(runs)} adaptive runs: |gain_rate| <= 1/rho and "
            f"gain >= 0 exactly (max |rate|*rho = {worst:.17g})",
        )


class TestCriterion3:
    def test_ultimate_bound_certificate(self, smooth_run):
        _, log, _ = smooth_run
        k, rho, mu = 2.0, 1.0, 2.3
        sigma = mu + 1.0 / (k * rho)
        v0 = float(abs(log.s[0]) + log.gain[0] / k)
        b = 0.5 * (sigma / k + v0)
        T = math.log((v0 - sigma / k) / (b - sigma / k)) / k
        vprime = np.abs(log.s) + log.gain / k
        after = vprime[log.t >= T]
        max_after = float(np.max(after))
        ok = max_after <= 1.05 * b
        assert report(
            3, "finite-time ultimate bound",
            ok,
            f"T={T:.4f}s, max V'(t>=T)={max_after:.5g} <= 1.05*b={1.05*b:.5g}",
        )


class TestCriterion4:
    def test_worst_case_oracle(self):
        mu, rho, phi = 1.0, 1.0, 0.01
        eta = ultimate_band(phi)
        ob = overshoot_bound(mu, rho, phi)
        assert ob.feasible
        t, s, _ = worst_case_run(eta, 0.0, mu, ob.m, eta, dt=1e-4)
        closed = np.array([worst_case_response(ti, eta, mu, 0.0, ob.m, eta) for ti in t])
        rel_err = float(np.max(np.abs(s - closed)) / np.max(np.abs(closed)))
        peak = float(np.max(s))
        ok = rel_err <= 1e-6 and peak <= ob.delta + 1e-9
        assert report(
            4, "worst-case closed form",
            ok,
            f"pointwise rel err={rel_err:.3g} (<= 1e-6), peak={peak:.9g} <= "
            f"delta+1e-9={ob.delta + 1e-9:.9g}",
        )


class TestCriterion5:
    def test_decay_certificate_outside_band(self, smooth_run):
        _, log, _ = smooth_run
        trace = lyapunov_trace(log, mu=2.3, rho=1.0, phi=0.01, k=2.0)
        checked = int(trace.checked.sum())
        n_viol = len(trace.violations)
        frac_ok = 1.0 - n_viol / checked
        ok = frac_ok >= 0.99 and len(trace.isolated_violations) == 0
        assert report(
            5, "decay outside band",
            ok,
            f"{checked - n_viol}/{checked} rows within certificate "
            f"({100*frac_ok:.3f}% >= 99%), violations away from a band crossing: "
            f"{len(trace.isolated_violations)} (must be 0)",
        )


class TestCriterion6:
    def test_tracking_steady_error(self, tracking_run):
        scenario, log, _ = tracking_run
        ref = scenario.plant.reference
        e = log.x[:, 0] - ref.amplitude * np.sin(ref.omega * log.t)
        window = np.abs(e[log.t >= 25.0])
        max_e, mean_e = float(np.max(window)), float(np.mean(window))
        limit = 2.0 * (math.sqrt(2.0) - 1.0) * 0.3 / 6.0
        ok = max_e <= limit and mean_e <= 0.021
        assert report(
            6, "tracking steady error",
            ok,
            f"final 5 s: max|e|={max_e:.5g} (<= {limit:.5g}), "
            f"mean|e|={mean_e:.5g} (<= 0.021)",
        )


class TestCriterion7:
    def test_comparison_ordering(self, compare_runs):
        phi = 0.01
        metrics = {
            name: compute_metrics(log, phi) for name, (_, log, _) in compare_runs.items()
        }
        chat_new = metrics["adaptive"].chattering_index
        chat_fast = metrics["plestan-fast"].chattering_index
        band_new = metrics["adaptive"].steady_band_max
        band_slow = metrics["plestan-slow"].steady_band_max
        ok = (chat_new < 0.5 * chat_fast) and (band_slow >= band_new)
        assert report(
            7, "comparison ordering",
            ok,
            f"chattering: adaptive={chat_new:.4g} < 0.5*fast-gain={0.5*chat_fast:.4g}; "
            f"state band: slow-gain={band_slow:.5g} >= adaptive={band_new:.5g}",
        )


class TestCriterion8:
    def test_core_math_property_suite(self):
        rng = np.random.default_rng(SEED)
        cases = 1000

        sym_ok = zero_ok = deriv_ok = True
        for _ in range(cases):
            phi = float(rng.uniform(1e-4, 1.0))
            s = float(rng.uniform(-10 * phi, 10 * phi))
            sym_ok &= delta_surface(-s, phi) == -delta_surface(s, phi)
            sym_ok &= adaptation_shape(-s, phi) == adaptation_shape(s, phi)
            eta = ultimate_band(phi)
            zero_ok &= delta_surface(phi, phi) == 0.0 and delta_surface(-phi, phi) == 0.0
            zero_ok &= abs(adaptation_shape(eta, phi)) <= 2e-15
            zero_ok &= abs(adaptation_shape(-eta, phi)) <= 2e-15
            h = 1e-6 * (abs(s) + phi)
            if abs(s) >= 3 * h:
                fd = (delta_surface(s + h, phi) - delta_surface(s - h, phi)) / (2 * h)
                deriv_ok &= math.isclose(fd, adaptation_shape(s, phi), rel_tol=1e-6)

        utkin = UtkinAdaptiveSMC(UtkinParams(tau=5e-4, alpha=0.95, nu=1.0, M=46.0,
                                             K_plus=23.0, epsilon=0.01, K0=1.0))
        z_ok = True
        for _ in range(cases):
            utkin.step(float(rng.uniform(-3, 3)), 0.0, 1.0, 1e-4)
            z_ok &= abs(utkin.z) <= 1.0

        plestan = PlestanAdaptiveSMC(PlestanParams(K_bar=3000.0, epsilon=0.0041,
                                                   kappa=0.01, K0=0.011))
        floor_ok = True
        for _ in range(cases):
            plestan.step(float(rng.uniform(-0.003, 0.003)), 0.0, 1.0, 1e-2)
            floor_ok &= plestan.K >= 0.01

        ok = sym_ok and zero_ok and deriv_ok and z_ok and floor_ok
        assert report(
            8, "core math properties",
            ok,
            f"{cases} randomized cases each: symmetry={sym_ok}, band zeros={zero_ok}, "
            f"derivative identity={deriv_ok}, filter |z|<=1: {z_ok}, "
            f"gain floor: {floor_ok}",
        )


class TestCriterion9:
    @pytest.mark.parametrize("preset", ["regulation-smooth", "regulation-square"])
    def test_byte_identical_preset_runs(self, tmp_path, preset):
        blobs = []
        for sub in ("first", "second"):
            res = subprocess.run(
                [sys.executable, "-m", "smcsim", "run", preset,
                 "--t-end", "2.0", "--out", str(tmp_path / sub)],
                capture_output=True, text=True,
            )
            assert res.returncode == 0, res.stderr
            blobs.append((tmp_path / sub / f"{preset}.csv").read_bytes())
        ok = blobs[0] == blobs[1]
        assert report(
            9, "determinism",
            ok,
            f"two CLI executions of {preset} produced byte-identical CSVs "
            f"({len(blobs[0])} bytes)",
        )
