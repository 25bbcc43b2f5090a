"""Five sliding-mode controllers behind one discrete-time stepping interface.

Every controller implements ``step(s, h, g, dt) -> (u, gain, gain_rate)``,
a plain tuple, where s is the sliding variable, h and g the nominal drift and
input gain of the s-dynamics, and dt the controller sample period. The
returned u is held constant until the next sample (zero-order hold). The
sample is computed from the controller state at the sample instant; adaptive
states then advance once per call. One instance must not be stepped
concurrently, but distinct instances are independent.

A step checks nothing, and must not raise on any float s, h and u it is
given. g != 0 and 0 < dt < inf are the caller's duty, and
``sim.run_scenario`` guarantees them: ``IntegrationSettings`` validates dt
once and each plant's g is fixed and nonzero from its construction. s is
checked after the step, not before: the runner checks the surface, the
control and the state of a whole block at once, so after a blow-up the rest
of that block steps on a non-finite s (inf or NaN), whose outputs the run
then discards as it reports the divergence. The delta-adaptive law's phi is
refused at construction when phi*phi underflows to 0, so its shape function
never divides by 0.
Each controller takes its law's parameters directly, validates them once in
``__init__`` and keeps them as attributes next to its adaptive state, which
``reset()`` returns to the initial value.

Only the delta-adaptive law uses h and g; the switching baselines
(u = -K*sgn(s) variants) ignore them, matching their published forms.
"""

import warnings

from .core import (_require_layer_width, _require_positive, adaptation_shape, sat, sgn,
                   ultimate_band)
from .errors import ParameterError, TuningWarning


class ClassicalSMC:
    """u = -K*sgn(s) with a fixed switching gain."""

    kind = "classical"

    def __init__(self, K: float):
        _require_positive("K", K)
        self.K = K

    def reset(self):
        pass

    def step(self, s, h, g, dt):
        return -self.K * sgn(s), self.K, 0.0


class BoundaryLayerSMC:
    """u = -K*sat(s/phi): the switching term smoothed inside a layer of width phi."""

    kind = "boundary_layer"

    def __init__(self, K: float, phi: float):
        _require_positive("K", K)
        _require_positive("phi", phi)
        self.K = K
        self.phi = phi

    def reset(self):
        pass

    def step(self, s, h, g, dt):
        return -self.K * sat(s, self.phi), self.K, 0.0


class UtkinAdaptiveSMC:
    """Gain adaptation driven by the low-pass filtered switching signal.

    The filter tau*z_dot + z = sgn(s) advances by one implicit Euler step per
    sample (unconditionally stable, keeps |z| <= 1), the freshly filtered z
    forms delta = |z| - alpha, and the gain follows
    K_dot = nu*K*sgn(delta) - M*[K - K_plus]_+ + M*[epsilon - K]_+ by explicit
    Euler from K0, where [.]_+ is the indicator of the argument being >= 0
    (the barrier terms have constant magnitude M, which must exceed
    nu*K_plus; the floor epsilon must stay below the ceiling K_plus).
    """

    kind = "utkin"

    def __init__(self, tau: float, alpha: float, nu: float, M: float, K_plus: float,
                 epsilon: float, K0: float):
        self.tau, self.alpha, self.nu, self.M = tau, alpha, nu, M
        self.K_plus, self.epsilon, self.K0 = K_plus, epsilon, K0
        for name in ("tau", "nu", "M", "K_plus", "epsilon", "K0"):
            _require_positive(name, getattr(self, name))
        if not (0.0 < alpha < 1.0):
            raise ParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
        if not M > nu * K_plus:
            raise ParameterError(f"barrier M = {M!r} must exceed nu*K_plus = {nu * K_plus!r}")
        if not epsilon < K_plus:
            raise ParameterError(f"epsilon = {epsilon!r} must be below K_plus = {K_plus!r}")
        self.reset()

    def reset(self):
        self.z = 0.0
        self.K = self.K0

    def step(self, s, h, g, dt):
        q = dt / self.tau
        sign = sgn(s)
        self.z = (self.z + q * sign) / (1.0 + q)
        delta = abs(self.z) - self.alpha
        K = self.K
        rate = self.nu * K * sgn(delta)
        if K - self.K_plus >= 0.0:
            rate -= self.M
        if self.epsilon - K >= 0.0:
            rate += self.M
        self.K = K + dt * rate
        return -K * sign, K, rate


class PlestanAdaptiveSMC:
    """Gain law K_dot = K_bar*|s|*sgn(|s| - epsilon) above the floor kappa,
    K_dot = kappa at or below it (Plestan et al., IJC 83(9), 2010).

    The gain starts at K0 > kappa, grows outside |s| = epsilon and shrinks
    inside, clamped at the floor kappa, from which it rises at rate kappa.
    """

    kind = "plestan"

    def __init__(self, K_bar: float, epsilon: float, kappa: float, K0: float):
        self.K_bar, self.epsilon, self.kappa, self.K0 = K_bar, epsilon, kappa, K0
        for name in ("K_bar", "epsilon", "kappa", "K0"):
            _require_positive(name, getattr(self, name))
        if not K0 > kappa:
            raise ParameterError(f"K0 = {K0!r} must exceed the floor kappa = {kappa!r}")
        self.reset()

    def reset(self):
        self.K = self.K0

    def step(self, s, h, g, dt):
        K = self.K
        kappa = self.kappa
        rate = self.K_bar * abs(s) * sgn(abs(s) - self.epsilon) if K > kappa else kappa
        K_next = K + dt * rate
        self.K = K_next if K_next > kappa else kappa
        return -K * sgn(s), K, rate


class DeltaAdaptiveSMC:
    """Adaptive law u = -(1/g)*(h + k*s + mu_hat*sgn(s)).

    phi sets the boundary layer, rho scales the learning rate, k is the
    linear feedback gain and mu_hat0 the initial gain guess. The gain
    estimate integrates mu_hat_dot = adaptation_shape(s, phi)/rho by
    explicit Euler and is projected onto [0, inf) after each step, so
    mu_hat >= 0 holds exactly in discrete time and |gain_rate| <= 1/rho
    exactly by the range of the shape function. k above 1/eta confines the
    state inside the band and stalls the adaptation, so that range triggers
    a warning rather than an error.
    """

    kind = "delta_adaptive"

    def __init__(self, phi: float, rho: float, k: float, mu_hat0: float):
        self.phi, self.rho, self.k, self.mu_hat0 = phi, rho, k, mu_hat0
        _require_layer_width(phi)
        for name in ("rho", "mu_hat0"):
            _require_positive(name, getattr(self, name))
        _require_positive("k", k, zero_ok=True)
        limit = 1.0 / ultimate_band(phi)
        if k > limit:
            warnings.warn(
                TuningWarning(f"feedback gain k = {k:g} exceeds 1/eta = {limit:g}; "
                              "the adaptation may stall inside the band", "controller"),
                stacklevel=2,
            )
        self.reset()

    def reset(self):
        self.mu_hat = self.mu_hat0

    def step(self, s, h, g, dt):
        mu_hat = self.mu_hat
        rate = adaptation_shape(s, self.phi) / self.rho
        u = -(h + self.k * s + mu_hat * sgn(s)) / g
        nxt = mu_hat + dt * rate
        self.mu_hat = nxt if nxt > 0.0 else 0.0
        return u, mu_hat, rate
