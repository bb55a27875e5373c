"""Pointwise proximal kernels for the saddle-point solver.

The solver uses ``prox_kinetic_congestion``, the exact prox of the *sum*
of the perspective kinetic and congestion costs (theta = 0 leaves the
kinetic prox alone), and the radial prox of the conjugate price potential
(``prox_Phi_star``).  The congestion prox ``prox_F`` is the joint prox
without the kinetic term.

All kernels are vectorized over arbitrary array shapes and are closed forms
or Newton iterations that stop once the residuals are below NEWTON_TOL
(relative) and raise ``NoConvergence`` when they do not within NEWTON_MAX
steps.  Outputs satisfy m >= 0 exactly and (m = 0 implies w = 0).
``power_prox`` (the congestion and price proxes) is a scalar monotone Newton.

The q = r = 2 joint prox has its own branch: it works with |wbar|^2
throughout (no square root), its momentum is the closed form
w = c m / (c m + tau) wbar, and its Newton iteration starts at the
congestion-only prox max(mbar, 0)/(1 + tau theta), which lies below the root
of the concave, increasing stationarity function, so every Newton step
increases m towards the root.  Every other exponent cell runs one joint 2x2
Newton on (m, rho = |w|), damped by a fraction-to-boundary step and an Armijo
line search (``_prox_joint``).
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

NEWTON_TOL = 1e-12
NEWTON_MAX = 60
TINY = np.finfo(float).tiny


def power_prox(nbar, lam, expo):
    """Solve rho + lam * rho**(expo-1) = nbar for rho >= 0 (zero when nbar <= 0).

    This is the prox of lam/expo * rho**expo restricted to rho >= 0; it is
    the scalar core shared by prox_F and the radial price proxes.  Off
    expo = 2 the left side is convex (expo > 2) or concave (expo < 2) in rho,
    so Newton from the upper bound min(nbar, (nbar/lam)^(1/(expo-1))) of the
    root, respectively the lower bound min(nbar/2, (nbar/(2 lam))^(1/(expo-1))),
    approaches it monotonically from that side.
    """
    nbar = np.asarray(nbar, dtype=float)
    pos = nbar > 0.0
    if expo == 2.0:
        return np.where(pos, nbar / (1.0 + lam), 0.0)
    out = np.zeros(nbar.shape)
    idx = np.flatnonzero(pos)
    nb, la = nbar.ravel()[idx], np.broadcast_to(np.asarray(lam, dtype=float), nbar.shape).ravel()[idx]
    share = 1.0 if expo > 2.0 else 0.5
    with np.errstate(divide="ignore"):  # lam = 0: the root is nbar; lam = inf: 0
        rho = np.minimum(share * nb, np.exp((np.log(nb) - np.log(la / share)) / (expo - 1.0)))
    keep = rho > 0.0  # a start that underflows to 0 leaves a root within a few subnormals of it
    idx, nb, la, rho = idx[keep], nb[keep], la[keep], rho[keep]
    for _ in range(NEWTON_MAX):
        slope = la * rho ** (expo - 2.0)
        f = rho + slope * rho - nb
        new = rho - f / (1.0 + (expo - 1.0) * slope)
        # or a step that rounding cancels or sends to 0 (roots among the subnormals)
        settled = (np.abs(f) <= NEWTON_TOL * nb) | (new == rho) | (new <= 0.0)
        if settled.any():
            out.ravel()[idx[settled]] = rho[settled]
            keep = ~settled
            idx, nb, la, new = idx[keep], nb[keep], la[keep], new[keep]
        if idx.size == 0:
            return out
        rho = new
    raise NoConvergence(f"power_prox: {idx.size} entries unsettled after {NEWTON_MAX} Newton steps")


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
    n = np.sqrt((Pbar * Pbar).sum(axis=-1, keepdims=True))
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


def prox_kinetic_congestion(mbar, wbar, tau, c, r, theta=0.0, q=2.0):
    """Exact prox of tau * [m H*(x, -w/m) + theta m^q / q] over m >= 0.

    wbar carries its components on the *first* axis; mbar has the remaining
    shape.  c and theta broadcast against mbar.  Returns (m, w) with the
    apex convention: m = 0 forces w = 0.

    The optimal w is colinear with wbar; (m, |w|) comes from
    ``_prox_quadratic`` at q = r = 2 and from ``_prox_joint`` otherwise.
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
    m, rho = _prox_joint(mbar, wnorm, tau, c, r, theta, q)
    wn_safe = np.where(wnorm > 0.0, wnorm, 1.0)
    return m, np.where(m > 0.0, rho / wn_safe, 0.0) * wbar


def _prox_joint(mbar, wnorm, tau, c, r, theta, q):
    """(m, rho) of the joint prox for any exponent cell, by Newton on (m, rho).

    (m, rho) minimizes J = (m - mbar)^2/2 + (rho - |wbar|)^2/2 + rho kin/r'
    + tau theta m^q/q with kin = tau c^(1-r') (rho/m)^(r'-1), a perspective
    plus a quadratic: its Hessian [[a + A v, -A], [-A, 1 + A/v]] (v = rho/m,
    A = (r'-1) kin/m, a = 1 + tau theta (q-1) m^(q-2)) is positive definite.
    Steps go at most 0.99 of the way to m = 0 or rho = 0 and are halved until
    L = J - J(0, 0), formed without cancellation, decreases.  The stop test is
    on the stationarity equations as ``kinetic_kkt_residual`` forms them:
    E1 = rho + kin - |wbar| and E2 = m - mbar + tau theta m^(q-1) -
    (tau c^(1-r')/r) ((|wbar| - rho)/(tau c^(1-r')))^r.  Apex entries,
    S = mbar + tau c (|wbar|/tau)^r / r <= 0, are (0, 0).  The start is on
    E1 = 0 at the larger of the congestion-only prox of mbar and min(S/(2 + 2c
    (|wbar|^2/(tau^2 c^(1-r')))^(r-1)), (S/(2 tau theta))^(1/(q-1))), where
    each part of E2 is at most S/2: below the root, so L < 0 from the start.
    """
    r_prime = r / (r - 1.0)
    m_out, rho_out = np.zeros(mbar.shape), np.zeros(mbar.shape)
    with np.errstate(over="ignore"):
        slack = mbar + tau * c * (wnorm / tau) ** r / r
    idx = np.flatnonzero(slack > 0.0)  # off the apex
    mb, wn, S, c_i = mbar.ravel()[idx], wnorm.ravel()[idx], slack.ravel()[idx], c.ravel()[idx]
    t, th = tau * c_i ** (1.0 - r_prime), tau * theta.ravel()[idx]

    def objective(m, rho, mb, wn, t, th):
        kin = t * (rho / m) ** (r_prime - 1.0)
        mq = m if q == 2.0 else m ** (q - 1.0)
        cong = th * mq / q
        L = m * (0.5 * m - mb + cong) + rho * (0.5 * rho - wn + kin / r_prime)
        size = m * (0.5 * m + np.abs(mb) + cong) + rho * (0.5 * rho + wn + kin / r_prime)
        return kin, mq, L, size

    with np.errstate(divide="ignore", over="ignore"):
        bound = np.minimum(S / (2.0 + 2.0 * c_i * (wn * wn / (tau * t)) ** (r - 1.0)),
                           (S / (2.0 * th)) ** (1.0 / (q - 1.0)))
        m = np.maximum(power_prox(mb, th, q), bound)
        keep = m >= TINY  # a start below the normal range is within rounding of the apex
        idx, mb, wn, t, th, m = idx[keep], mb[keep], wn[keep], t[keep], th[keep], m[keep]
        rho = power_prox(wn, t * m ** (1.0 - r_prime), r_prime)
    kin, mq, L, size = objective(m, rho, mb, wn, t, th)
    for _ in range(NEWTON_MAX):
        E1 = rho + kin - wn
        E2 = m - mb + th * mq - (t / r) * ((wn - rho) / t) ** r
        settled = (np.abs(E1) <= NEWTON_TOL * (1.0 + wn)) & (np.abs(E2) <= NEWTON_TOL * (1.0 + np.abs(mb)))
        if settled.any():
            m_out.ravel()[idx[settled]], rho_out.ravel()[idx[settled]] = m[settled], rho[settled]
            keep = ~settled
            idx, mb, wn, t, th = idx[keep], mb[keep], wn[keep], t[keep], th[keep]
            m, rho, kin, mq, L, size, E1 = m[keep], rho[keep], kin[keep], mq[keep], L[keep], size[keep], E1[keep]
        if idx.size == 0:
            return m_out, rho_out
        g_m = m - mb + th * mq - rho * kin / (r * m)
        A = (r_prime - 1.0) * kin / m
        a = 1.0 + th * (q - 1.0) * mq / m
        v = rho / m
        A_v = np.divide(A, v, out=np.zeros_like(A), where=rho > 0.0)
        det = a * (1.0 + A_v) + A * v  # the Hessian's determinant, free of cancellation
        d_m = -((1.0 + A_v) * g_m + A * E1) / det
        d_rho = -((a + A * v) * E1 + A * g_m) / det
        # at most 0.99 of the way to m = 0 or rho = 0, then halved until L decreases
        step = np.minimum(1.0, 0.99 * np.minimum(
            np.divide(m, -d_m, out=np.full_like(m, np.inf), where=d_m < 0.0),
            np.divide(rho, -d_rho, out=np.full_like(m, np.inf), where=d_rho < 0.0)))
        descent = 1e-4 * (g_m * d_m + E1 * d_rho)  # the Armijo share of the slope
        for _ in range(NEWTON_MAX):
            m_try, rho_try = m + step * d_m, rho + step * d_rho
            trial = objective(m_try, rho_try, mb, wn, t, th)
            short = trial[2] > L + step * descent + 1e-14 * size  # 1e-14 size: L's rounding
            if not short.any():
                break
            step = np.where(short, 0.5 * step, step)
        m, rho = m_try, rho_try
        kin, mq, L, size = trial
    raise NoConvergence(f"joint kinetic prox: {idx.size} entries unsettled after {NEWTON_MAX} Newton steps")


def _prox_quadratic(mbar, wbar, tau, c, theta):
    """The q = r = 2 joint prox, on |wbar|^2 and with the closed-form momentum."""
    w2 = (wbar * wbar).sum(axis=0)
    # apex: the kinetic cost of any m > 0 outweighs the quadratic pull
    apex = mbar + c * w2 / (2.0 * tau) <= 0.0
    if apex.any():  # masked entries get a harmless surrogate
        mbar, w2 = np.where(apex, 1.0, mbar), np.where(apex, 0.0, w2)
    m = np.where(apex, 0.0, np.maximum(_newton_quadratic(mbar, w2, tau, c, theta), 0.0))  # roots may round below 0
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
        if (np.abs(G) <= tol).all():
            return m
        m = m - G / (a + bc / (den2 * den))
    den = c * m + tau
    G = a * m - mbar - half_b / (den * den)
    if np.any(np.abs(G) > 1e-9 * (1.0 + np.abs(mbar))):
        raise NoConvergence(f"quadratic kinetic prox residual {np.abs(G).max():.3e}")
    return m


def kinetic_kkt_residual(m, w, mbar, wbar, tau, c, r, theta=0.0, q=2.0):
    """Stationarity residual of the (joint) kinetic prox at an interior point.

    Returns the maximum over the m-equation and the colinear w-equation;
    zero (vacuously) at apex points.
    """
    m = np.asarray(m, dtype=float)
    w = np.asarray(w, dtype=float)
    # hypot: a norm that neither underflows nor overflows (|w| near 1e-300 squares to 0)
    wnorm = np.hypot.reduce(np.asarray(wbar, float), axis=0, initial=0.0)
    rho = np.hypot.reduce(w, axis=0, initial=0.0)
    r_prime = r / (r - 1.0)
    cp = np.asarray(c, float) ** (1.0 - r_prime)
    m_pos = np.where(m > 0.0, m, 1.0)
    res_w = np.where(m > 0.0, np.abs(rho + tau * cp * (rho / m_pos) ** (r_prime - 1.0) - wnorm), 0.0)
    res_m = np.where(
        m > 0.0,
        np.abs(m - np.asarray(mbar, float) + tau * np.asarray(theta, float) * m ** (q - 1.0) - (tau * cp / r) * ((wnorm - rho) / (cp * tau)) ** r),
        0.0,
    )
    return np.maximum(res_m, res_w)
