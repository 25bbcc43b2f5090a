"""Five sliding-mode controllers behind one discrete-time stepping interface.

Every controller implements ``step(s, h, g, dt) -> (u, gain, gain_rate)``,
a plain tuple, where s is the sliding variable, h and g the nominal drift and
input gain of the s-dynamics, and dt the controller sample period. The
returned u is held constant until the next sample (zero-order hold). The
sample is computed from the controller state at the sample instant; adaptive
states then advance once per call. One instance must not be stepped
concurrently, but distinct instances are independent.

A step checks nothing. s finite, g != 0 and 0 < dt < inf are the caller's
duty, and ``sim.run_scenario`` guarantees them: ``IntegrationSettings``
validates dt once, and the runner checks s and g before each step.
Parameters are validated once, when a controller is built.

Only the delta-adaptive law uses h and g; the switching baselines
(u = -K*sgn(s) variants) ignore them, matching their published forms.
"""

import math
import warnings
from dataclasses import dataclass

from .core import _require_positive, adaptation_shape, sat, sgn, ultimate_band
from .errors import ParameterError, TuningWarning


@dataclass(frozen=True)
class DeltaAdaptiveParams:
    """Parameters of the delta-function gain-adaptation law.

    phi sets the boundary layer, rho scales the learning rate (|gain_rate|
    never exceeds 1/rho), k is the linear feedback gain and mu_hat0 the
    initial gain guess. k above 1/eta confines the state inside the band and
    stalls the adaptation, so that range triggers a warning rather than an
    error.
    """

    phi: float
    rho: float
    k: float
    mu_hat0: float

    def __post_init__(self):
        for name in ("phi", "rho", "mu_hat0"):
            _require_positive(name, getattr(self, name))
        if not math.isfinite(self.k) or self.k < 0.0:
            raise ParameterError(f"k must be finite and >= 0, got {self.k!r}")
        limit = 1.0 / ultimate_band(self.phi)
        if self.k > limit:
            warnings.warn(
                f"feedback gain k = {self.k:g} exceeds 1/eta = {limit:g}; "
                "the adaptation may stall inside the band",
                TuningWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class UtkinParams:
    """Equivalent-control adaptation: filter constant tau, threshold alpha,
    growth rate nu, barrier magnitude M, gain ceiling K_plus, floor epsilon."""

    tau: float
    alpha: float
    nu: float
    M: float
    K_plus: float
    epsilon: float
    K0: float

    def __post_init__(self):
        for name in ("tau", "nu", "M", "K_plus", "epsilon", "K0"):
            _require_positive(name, getattr(self, name))
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not self.M > self.nu * self.K_plus:
            raise ParameterError(
                f"barrier M = {self.M!r} must exceed nu*K_plus = {self.nu * self.K_plus!r}"
            )
        if not self.epsilon < self.K_plus:
            raise ParameterError(
                f"epsilon = {self.epsilon!r} must be below K_plus = {self.K_plus!r}"
            )


@dataclass(frozen=True)
class PlestanParams:
    """Gain law K_dot = K_bar*|s|*sgn(|s| - epsilon) above the floor kappa,
    K_dot = kappa at or below it (Plestan et al., IJC 83(9), 2010)."""

    K_bar: float
    epsilon: float
    kappa: float
    K0: float

    def __post_init__(self):
        for name in ("K_bar", "epsilon", "kappa", "K0"):
            _require_positive(name, getattr(self, name))
        if not self.K0 > self.kappa:
            raise ParameterError(
                f"K0 = {self.K0!r} must exceed the floor kappa = {self.kappa!r}"
            )


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
    Euler, where [.]_+ is the indicator of the argument being >= 0 (the
    barrier terms have constant magnitude M).
    """

    kind = "utkin"

    def __init__(self, params: UtkinParams):
        self.params = params
        self.z = 0.0
        self.K = params.K0

    def reset(self):
        self.z = 0.0
        self.K = self.params.K0

    def step(self, s, h, g, dt):
        p = self.params
        q = dt / p.tau
        sign = sgn(s)
        self.z = (self.z + q * sign) / (1.0 + q)
        delta = abs(self.z) - p.alpha
        K = self.K
        rate = p.nu * K * sgn(delta)
        if K - p.K_plus >= 0.0:
            rate -= p.M
        if p.epsilon - K >= 0.0:
            rate += p.M
        self.K = K + dt * rate
        return -K * sign, K, rate


class PlestanAdaptiveSMC:
    """Gain grows outside |s| = epsilon and shrinks inside, clamped at the
    floor kappa, from which it rises at rate kappa."""

    kind = "plestan"

    def __init__(self, params: PlestanParams):
        self.params = params
        self.K = params.K0

    def reset(self):
        self.K = self.params.K0

    def step(self, s, h, g, dt):
        p = self.params
        K = self.K
        rate = p.K_bar * abs(s) * sgn(abs(s) - p.epsilon) if K > p.kappa else p.kappa
        K_next = K + dt * rate
        self.K = K_next if K_next > p.kappa else p.kappa
        return -K * sgn(s), K, rate


class DeltaAdaptiveSMC:
    """Adaptive law u = -(1/g)*(h + k*s + mu_hat*sgn(s)).

    The gain estimate integrates mu_hat_dot = adaptation_shape(s, phi)/rho by
    explicit Euler and is projected onto [0, inf) after each step, so
    mu_hat >= 0 holds exactly in discrete time and |gain_rate| <= 1/rho
    exactly by the range of the shape function.
    """

    kind = "delta_adaptive"

    def __init__(self, params: DeltaAdaptiveParams):
        self.params = params
        self.mu_hat = params.mu_hat0

    def reset(self):
        self.mu_hat = self.params.mu_hat0

    def step(self, s, h, g, dt):
        p = self.params
        mu_hat = self.mu_hat
        rate = adaptation_shape(s, p.phi) / p.rho
        u = -(h + p.k * s + mu_hat * sgn(s)) / g
        nxt = mu_hat + dt * rate
        self.mu_hat = nxt if nxt > 0.0 else 0.0
        return u, mu_hat, rate
