"""The worst-case oscillator of the excursion bound, in closed form and by RK4.

Inside the band the gain law, linearized at its worst case, reduces to the
affine pair

    s_dot      = -mu_hat + mu
    mu_hat_dot = m*(s + eta)

an oscillation of frequency sqrt(m) centred on s = -eta. The tests check
core.overshoot_bound's excursion bound against both forms, and each form
against the other.
"""

import math

import numpy as np

from smcsim.core import _require_positive
from smcsim.sim import row_count


def worst_case_response(t, s0, mu, mu_hat0, m, eta) -> float:
    """Closed-form worst-case trajectory of s under the affine gain law.

    s(t) = (s0 + eta)*cos(sqrt(m)*t) + ((mu - mu_hat0)/sqrt(m))*sin(sqrt(m)*t) - eta.
    Its signed maximum over one period is sqrt((s0+eta)**2 + (mu-mu_hat0)**2/m) - eta.
    """
    _require_positive("m", m)
    root = math.sqrt(m)
    return (s0 + eta) * math.cos(root * t) + (mu - mu_hat0) / root * math.sin(root * t) - eta


def worst_case_run(s0, mu_hat0, mu, m, eta, dt=1e-4, t_end=None):
    """Integrate the affine pair with RK4, by default over one full period.
    Returns (t, s, mu_hat) arrays."""
    _require_positive("m", m)
    if t_end is None:
        t_end = 2.0 * math.pi / math.sqrt(m)
    n = row_count(t_end, dt)
    t = np.empty(n)
    s_arr = np.empty(n)
    g_arr = np.empty(n)

    hh = 0.5 * dt
    s, g = float(s0), float(mu_hat0)
    for i in range(n):
        t[i] = i * dt
        s_arr[i], g_arr[i] = s, g
        if i + 1 < n:
            a1, b1 = -g + mu, m * (s + eta)
            a2, b2 = -(g + hh * b1) + mu, m * (s + hh * a1 + eta)
            a3, b3 = -(g + hh * b2) + mu, m * (s + hh * a2 + eta)
            a4, b4 = -(g + dt * b3) + mu, m * (s + dt * a3 + eta)
            s, g = (s + dt * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0,
                    g + dt * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0)
    return t, s_arr, g_arr
