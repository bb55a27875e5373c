"""Pointwise proximal kernels for the saddle-point solver.

Three pure kernels are exposed: the congestion prox (``prox_F``), the prox
of the perspective kinetic cost (``prox_kinetic``) and the radial prox of
the conjugate price potential (``prox_Phi_star``).  The solver itself uses
``prox_kinetic_congestion``, the exact prox of the *sum* of the kinetic and
congestion costs; the two pure kernels are its special cases (theta = 0,
respectively no kinetic term).

All kernels are vectorized over arbitrary array shapes and reduce to
monotone scalar equations: closed forms where they exist, monotone Newton
(tolerance NEWTON_TOL, at most NEWTON_MAX steps) for q = r = 2, and
bracketed bisection (``solve_increasing``) otherwise.  Outputs satisfy
m >= 0 exactly and (m = 0 implies w = 0).

The q = r = 2 joint prox has its own branch: it works with |wbar|^2
throughout (no square root), its momentum is the closed form
w = c m / (c m + tau) wbar, and its Newton iteration starts at the
congestion-only prox max(mbar, 0)/(1 + tau theta), which lies below the root
of the concave, increasing stationarity function, so every Newton step
increases m towards the root.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

_BIG = 1.0e300
NEWTON_TOL = 1e-12
NEWTON_MAX = 60


def _clamp(f):
    return np.nan_to_num(f, nan=0.0, posinf=_BIG, neginf=-_BIG)


def solve_increasing(fn, lo, hi, max_iter=100):
    """Vectorized root of an increasing function on bracketing arrays.

    Requires fn(lo) <= 0 <= fn(hi) componentwise (entries violating this are
    clamped to the nearer endpoint).  Bisection stops once every bracket
    [a, b] is at most 1e-16 (1 + |b|) wide or after max_iter halvings; four
    secant steps inside the final bracket then polish the root.
    """
    a = np.array(np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float))[0], dtype=float)
    b = np.array(np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float))[1], dtype=float)
    fa = _clamp(fn(a))
    fb = _clamp(fn(b))
    # collapse brackets whose root lies outside
    b = np.where(fa >= 0.0, a, b)
    fb = np.where(fa >= 0.0, fa, fb)
    a = np.where(fb <= 0.0, b, a)
    fa = np.where(fb <= 0.0, fb, fa)

    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        fm = _clamp(fn(mid))
        neg = fm < 0.0
        a = np.where(neg, mid, a)
        fa = np.where(neg, fm, fa)
        b = np.where(neg, b, mid)
        fb = np.where(neg, fm, fb)
        if np.all(b - a <= 1e-16 * (1.0 + np.abs(b))) :
            break
    # secant polish inside the final bracket
    x = 0.5 * (a + b)
    for _ in range(4):
        denom = fb - fa
        x = np.where(denom > 0.0, a - fa * (b - a) / np.where(denom > 0.0, denom, 1.0), x)
        x = np.clip(x, a, b)
        fx = _clamp(fn(x))
        neg = fx < 0.0
        a = np.where(neg, x, a)
        fa = np.where(neg, fx, fa)
        b = np.where(neg, b, x)
        fb = np.where(neg, fx, fb)
    return np.clip(x, a, b)


def power_prox(nbar, lam, expo):
    """Solve rho + lam * rho**(expo-1) = nbar for rho >= 0 (zero when nbar <= 0).

    This is the prox of lam/expo * rho**expo restricted to rho >= 0; it is
    the scalar core shared by prox_F and the radial price proxes.
    """
    nbar = np.asarray(nbar, dtype=float)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), nbar.shape)
    pos = nbar > 0.0
    if expo == 2.0:
        return np.where(pos, nbar / (1.0 + lam), 0.0)
    nb = np.where(pos, nbar, 1.0)

    def f(rho):
        return rho + lam * rho ** (expo - 1.0) - nb

    root = solve_increasing(f, np.zeros_like(nb), nb, max_iter=NEWTON_MAX + 40)
    resid = np.abs(np.where(pos, f(root), 0.0))
    if np.any(resid > 1e-9 * (1.0 + np.abs(nbar))):
        raise NoConvergence(f"power_prox residual {resid.max():.3e}")
    return np.where(pos, root, 0.0)


def prox_F(mbar, tau, theta, q):
    """Congestion prox: the unique m >= 0 with m + tau*theta*m**(q-1) = mbar.

    Returns 0 for mbar <= 0.  Closed form mbar/(1 + tau*theta) when q = 2.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    return power_prox(mbar, tau * np.asarray(theta, dtype=float), q)


def prox_Phi_star(Pbar, sigma_step, kappa_phi, s):
    """Radial prox of the conjugate price potential (components on the last axis).

    kappa_phi = 0 selects the degenerate potential (conjugate = indicator of
    the origin) and returns zero.
    """
    if sigma_step <= 0.0:
        raise ValueError("sigma_step must be positive")
    Pbar = np.asarray(Pbar, dtype=float)
    if kappa_phi == 0.0:
        return np.zeros_like(Pbar)
    n = np.linalg.norm(Pbar, axis=-1, keepdims=True)
    s_prime = s / (s - 1.0)
    lam = sigma_step * kappa_phi ** (1.0 - s_prime)
    rho = power_prox(n, lam, s_prime)
    n_safe = np.where(n > 0.0, n, 1.0)
    return rho / n_safe * Pbar


def prox_Phi(zbar, lam, kappa_phi, s):
    """Radial prox of the price potential itself (used by the Moreau checks)."""
    zbar = np.asarray(zbar, dtype=float)
    if kappa_phi == 0.0:
        return zbar.copy()
    n = np.linalg.norm(zbar, axis=-1, keepdims=True)
    rho = power_prox(n, lam * kappa_phi, s)
    n_safe = np.where(n > 0.0, n, 1.0)
    return rho / n_safe * zbar


def _rho_inner(m, wnorm, tau, c, r):
    """Optimal momentum magnitude rho(m): rho + tau c^(1-r') m^(1-r') rho^(r'-1) = wnorm."""
    r_prime = r / (r - 1.0)
    cp = c ** (1.0 - r_prime)
    m_pos = np.where(m > 0.0, m, 1.0)
    if r == 2.0:
        rho = wnorm * c * m_pos / (c * m_pos + tau)
        return np.where(m > 0.0, rho, 0.0)
    beta = _clamp(tau * cp * m_pos ** (1.0 - r_prime))

    def f(rho):
        return rho + _clamp(beta * rho ** (r_prime - 1.0)) - wnorm

    rho = solve_increasing(f, np.zeros_like(wnorm), wnorm)
    return np.where((m > 0.0) & (wnorm > 0.0), rho, 0.0)


def _outer_G(m, mbar, wnorm, tau, c, r, theta, q):
    """Stationarity function of the reduced one-dimensional problem in m.

    Uses the stable form of the kinetic slope: with rho = rho(m),
    d/dm [tau m H*(-w/m)] = -(tau c^(1-r')/r) ((wnorm-rho)/(c^(1-r') tau))^r.
    """
    r_prime = r / (r - 1.0)
    cp = c ** (1.0 - r_prime)
    rho = _rho_inner(m, wnorm, tau, c, r)
    kin_slope = (tau * cp / r) * _clamp(((wnorm - rho) / (cp * tau)) ** r)
    cong = tau * theta * m ** (q - 1.0) if np.any(np.asarray(theta) != 0.0) else 0.0
    return m - mbar + cong - kin_slope


def prox_kinetic_congestion(mbar, wbar, tau, c, r, theta=0.0, q=2.0):
    """Exact prox of tau * [m H*(x, -w/m) + theta m^q / q] over m >= 0.

    wbar carries its components on the *first* axis; mbar has the remaining
    shape.  c and theta broadcast against mbar.  Returns (m, w) with the
    apex convention: m = 0 forces w = 0.

    The reduction: the optimal w is colinear with wbar, its magnitude rho(m)
    solves a monotone scalar equation (closed form for r = 2), and m solves
    the strictly increasing stationarity equation of the partially minimized
    objective.  The quadratic case q = r = 2 uses monotone Newton on its
    concave stationarity function; everything else falls back to bisection.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    mbar = np.asarray(mbar, dtype=float)
    wbar = np.asarray(wbar, dtype=float)
    c = np.broadcast_to(np.asarray(c, dtype=float), mbar.shape)
    theta = np.broadcast_to(np.asarray(theta, dtype=float), mbar.shape)
    if r == 2.0 and q == 2.0:
        # a contiguous c: the Newton loop multiplies by it on every pass
        return _prox_quadratic(mbar, wbar, tau, c.copy(), theta)
    wnorm = np.sqrt(np.sum(wbar * wbar, axis=0))

    # apex: the whole quarter-plane cost dominates the quadratic pull
    apex = mbar + tau * c * _clamp((wnorm / tau) ** r) / r <= 0.0
    mb = np.where(apex, 1.0, mbar)  # masked entries get a harmless surrogate
    wn = np.where(apex, 0.0, wnorm)

    r_prime = r / (r - 1.0)
    cp = c ** (1.0 - r_prime)
    hi = np.maximum(mb, 0.0) + (tau * cp / r) * _clamp((wn / (cp * tau)) ** r) + 1e-30

    def G(m):
        return _outer_G(m, mb, wn, tau, c, r, theta, q)

    m = solve_increasing(G, np.zeros_like(mb), hi)
    m = np.where(apex, 0.0, m)
    rho = _rho_inner(m, wnorm, tau, c, r)
    wn_safe = np.where(wnorm > 0.0, wnorm, 1.0)
    w = np.where((m > 0.0) & (wnorm > 0.0), rho / wn_safe, 0.0) * wbar
    return m, w


def _prox_quadratic(mbar, wbar, tau, c, theta):
    """The q = r = 2 joint prox, on |wbar|^2 and with the closed-form momentum."""
    w2 = np.sum(wbar * wbar, axis=0)
    # apex: the kinetic cost of any m > 0 outweighs the quadratic pull
    apex = mbar + c * w2 / (2.0 * tau) <= 0.0
    m = _newton_quadratic(np.where(apex, 1.0, mbar), np.where(apex, 0.0, w2), tau, c, theta)
    m = np.where(apex, 0.0, np.maximum(m, 0.0))  # a root within rounding of 0 may land below it
    cm = c * m
    return m, cm / (cm + tau) * wbar


def _newton_quadratic(mbar, w2, tau, c, theta):
    """Monotone Newton for q = r = 2 on G(m) = a m - mbar - b / (2 (c m + tau)^2).

    Here a = 1 + tau theta, b = tau c |wbar|^2 and G'(m) = a + b c /
    (c m + tau)^3 (bc below).  G is increasing and concave on m >= 0, so
    Newton started below the root increases m and stays below it.  The start
    is the congestion-only prox max(mbar, 0)/a: there G = -b / (2 (c m +
    tau)^2) <= 0 when mbar >= 0, and G(0) = -mbar - c |wbar|^2 / (2 tau) < 0
    off the apex when mbar < 0.
    """
    a = 1.0 + tau * theta
    half_b = 0.5 * tau * c * w2
    bc = 2.0 * c * half_b
    tol = NEWTON_TOL * (1.0 + np.abs(mbar))
    m = np.maximum(mbar, 0.0) / a
    for _ in range(NEWTON_MAX):
        den = c * m + tau
        den2 = den * den
        G = a * m - mbar - half_b / den2
        if np.all(np.abs(G) <= tol):
            return m
        m = m - G / (a + bc / (den2 * den))
    den = c * m + tau
    G = a * m - mbar - half_b / (den * den)
    if np.any(np.abs(G) > 1e-9 * (1.0 + np.abs(mbar))):
        raise NoConvergence(f"quadratic kinetic prox residual {np.abs(G).max():.3e}")
    return m


def prox_kinetic(mbar, wbar, tau, c, r):
    """Prox of the pure perspective kinetic cost tau * m H*(x, -w/m)."""
    return prox_kinetic_congestion(mbar, wbar, tau, c, r, 0.0, 2.0)


def kinetic_kkt_residual(m, w, mbar, wbar, tau, c, r, theta=0.0, q=2.0):
    """Stationarity residual of the (joint) kinetic prox at an interior point.

    Returns the maximum over the m-equation and the colinear w-equation;
    zero (vacuously) at apex points.
    """
    m = np.asarray(m, dtype=float)
    w = np.asarray(w, dtype=float)
    wnorm = np.sqrt(np.sum(np.asarray(wbar, float) ** 2, axis=0))
    rho = np.sqrt(np.sum(w * w, axis=0))
    r_prime = r / (r - 1.0)
    cp = np.asarray(c, float) ** (1.0 - r_prime)
    m_pos = np.where(m > 0.0, m, 1.0)
    res_w = np.where(m > 0.0, np.abs(rho + tau * cp * m_pos ** (1.0 - r_prime) * rho ** (r_prime - 1.0) - wnorm), 0.0)
    res_m = np.where(
        m > 0.0,
        np.abs(m - np.asarray(mbar, float) + tau * np.asarray(theta, float) * m ** (q - 1.0) - (tau * cp / r) * ((wnorm - rho) / (cp * tau)) ** r),
        0.0,
    )
    return np.maximum(res_m, res_w)
