"""Scalar switching functions and closed-form stability bounds.

Everything here is a pure function of its arguments. The central objects are
the boundary-layer delta function

    delta_surface(s, phi) = s - 2*s*phi/(|s| + phi) = s*(|s| - phi)/(|s| + phi)

and its derivative in s, the adaptation shape function

    adaptation_shape(s, phi) = 1 - 2*phi**2/(|s| + phi)**2,

which is -1 at s = 0, crosses zero at |s| = eta = (sqrt(2) - 1)*phi and
approaches 1 from below as |s| grows. The gain-adaptation law scales this
shape by 1/rho, so the band |s| = eta is where the adaptive gain neither
grows nor shrinks. sgn, sat, delta_surface and adaptation_shape check
nothing: their parameters are validated once where they are built, and the
runner checks s once per block of rows. They raise on no float s, inf and
NaN included, given a phi that ``_require_layer_width`` accepts.
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParameterError

# (sqrt(2) - 1): ratio between the ultimate band eta and the layer width phi.
BAND_RATIO = math.sqrt(2.0) - 1.0


def _is_finite_number(value):
    """True for an int or float with a finite float value, and not a bool (an
    int subclass). Compares without converting, so an int beyond the float
    range is refused rather than raising OverflowError."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _require_positive(name, value, zero_ok=False):
    """Accept a positive (with zero_ok, non-negative) number that
    _is_finite_number accepts."""
    above = _is_finite_number(value) and (value >= 0.0 if zero_ok else value > 0.0)
    if not above:
        what = "non-negative" if zero_ok else "positive"
        raise ParameterError(f"{name} must be a {what} finite number, got {value!r}")


def _require_layer_width(phi):
    """Accept a layer width phi as _require_positive does, and only if
    phi*phi does not underflow to 0 (phi below about 1.6e-162):
    adaptation_shape divides by (|s| + phi)**2, which is then at least
    phi*phi > 0."""
    _require_positive("phi", phi)
    if phi * phi == 0.0:
        raise ParameterError(f"phi = {phi!r} is too small: phi*phi underflows to 0 "
                             "(phi must be at least about 1.6e-162)")


def sgn(s: float) -> int:
    """Three-valued signum: 1 for s > 0, -1 for s < 0, 0 for s = 0.

    Unchecked, like sat below: both branch on one float, the controllers'
    per-step path, and leave finiteness to the caller (NaN maps to 0).
    """
    if s > 0.0:
        return 1
    if s < 0.0:
        return -1
    return 0


def sat(s: float, phi: float) -> float:
    """Linear saturation of s/phi, clamped to [-1, 1]; phi > 0 is the
    caller's duty (the boundary-layer controller checks it once)."""
    r = s / phi
    if r > 1.0:
        return 1.0
    if r < -1.0:
        return -1.0
    return r


def delta_surface(s, phi):
    """Signed distance-like measure of s relative to the boundary layer.

    Vanishes at s = 0 and |s| = phi, tends to s - 2*phi*sgn(s) far outside
    the layer, and is odd in s. Written as s*(|s| - phi)/(|s| + phi) so the
    zeros at |s| = phi are exact in floating point. s is a float or a numpy
    array; phi > 0 is the caller's duty.
    """
    a = abs(s)
    return s * (a - phi) / (a + phi)


def adaptation_shape(s, phi):
    """Derivative of delta_surface in s; the gain-adaptation rate shape.

    Even in s, equals -1 at s = 0, crosses zero at |s| = (sqrt(2)-1)*phi and
    stays within [-1, 1] for every finite s (the upper bound is approached,
    never exceeded). s is a float or a numpy array; phi > 0 is the caller's
    duty.
    """
    t = abs(s) + phi
    return 1.0 - 2.0 * phi * phi / (t * t)


def ultimate_band(phi: float) -> float:
    """Half-width eta = (sqrt(2) - 1)*phi of the band the state settles around."""
    _require_positive("phi", phi)
    return BAND_RATIO * phi


def _certificate(mu, rho, k, v0, b=None):
    """The one source of the reach-time certificate's arithmetic, unchecked.

    Returns (sigma, sigma/k, b, T): sigma = mu + 1/(k*rho) (inf when k*rho
    underflows to 0), b by default the midpoint of (sigma/k, v0), and
    T = (1/k)*ln((v0 - sigma/k)/(b - sigma/k)), NaN where that ratio is not
    positive, inf at b = sigma/k and negative for b > v0.
    """
    sigma = mu + 1.0 / (k * rho) if k * rho else math.inf
    floor = sigma / k
    if b is None:
        b = 0.5 * (floor + v0)
    ratio = (v0 - floor) / (b - floor) if b != floor else math.inf
    return sigma, floor, b, (math.log(ratio) / k if ratio > 0.0 else math.nan)


class OvershootBound(NamedTuple):
    """Feasible oscillator stiffness and the excursion bound it certifies."""

    m: float
    delta: float
    feasible: bool


def overshoot_bound(mu, rho, phi) -> OvershootBound:
    """Largest feasible stiffness m and the excursion bound delta it yields.

    m must satisfy m < sqrt(2)/(rho*phi) and
    mu*sqrt(m) <= (1/rho)*adaptation_shape(eta + mu/sqrt(m)); the bound is
    delta = sqrt((2*eta)**2 + mu**2/m) - eta, which tightens as m grows, so
    the largest m is found by bisection, to an absolute 1e-10 or until no
    float lies between the two ends (above m = 2**19 floats are further
    apart than 1e-10). The ceiling is capped at the largest float, which it
    exceeds when rho*phi is tiny; the bisection then also ends once the
    midpoint overflows.
    Returns feasible=False instead of raising when no m survives (large
    mu*rho/phi pushes the feasible set below the tolerance).
    """
    if mu < 0.0 or not math.isfinite(mu):
        raise ParameterError(f"mu must be finite and >= 0, got {mu!r}")
    _require_positive("rho", rho)
    _require_layer_width(phi)
    eta = ultimate_band(phi)
    rp = rho * phi  # 0 when the product underflows
    m_sup = min(math.sqrt(2.0) / rp, sys.float_info.max) if rp else sys.float_info.max

    def ok(m):
        if m <= 0.0:
            return False
        root = math.sqrt(m)
        return mu * root <= adaptation_shape(eta + mu / root, phi) / rho

    lo, hi = 0.0, m_sup
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if ok(mid):
            lo = mid
        else:
            hi = mid
    if lo <= 0.0:
        return OvershootBound(math.nan, math.nan, False)
    delta = math.sqrt((2.0 * eta) ** 2 + mu * mu / lo) - eta
    return OvershootBound(lo, delta, True)


@dataclass(frozen=True)
class CertificateBounds:
    """The reach-time certificate's sigma, T and b, which the ultimate-bound
    verifier checks; sim.certificate_summary returns it next to the
    OvershootBound."""

    sigma: float
    T: float
    b: float
