import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgcontrols.prox import (
    TINY,
    _prox_joint,
    kinetic_kkt_residual,
    prox_F,
    prox_Phi,
    prox_Phi_star,
    prox_kinetic_congestion,
    power_prox,
)
from oracle import brute_prox_kinetic, brute_prox_phi_star


def test_prox_F_closed_form_q2():
    assert prox_F(np.array(2.0), 1.0, 1.0, 2.0) == pytest.approx(1.0)


def test_prox_F_projects_negative():
    assert prox_F(np.array(-5.0), 1.0, 1.0, 2.0) == 0.0
    assert prox_F(np.array(-5.0), 0.3, 2.0, 3.0) == 0.0


def test_prox_F_cubic_root():
    # q = 3, theta = 1, tau = 1, mbar = 2: m + m^2 = 2 has root m = 1
    assert prox_F(np.array(2.0), 1.0, 1.0, 3.0) == pytest.approx(1.0, abs=1e-12)


def test_prox_F_residual_small():
    rng = np.random.default_rng(0)
    mbar = rng.uniform(-1, 4, size=200)
    for q in (1.5, 2.0, 2.7, 4.0):
        m = prox_F(mbar, 0.7, 1.3, q)
        pos = mbar > 0
        res = m + 0.7 * 1.3 * m ** (q - 1.0) - mbar
        assert np.max(np.abs(res[pos])) <= 1e-12 * (1 + np.abs(mbar[pos]).max())
        assert np.all(m[~pos] == 0.0)


def test_prox_phi_star_zero_fixed():
    assert np.all(prox_Phi_star(np.zeros((3, 2)), 1.0, 1.0, 2.0) == 0.0)


def test_prox_phi_star_closed_form_s2():
    out = prox_Phi_star(np.array([4.0]), 1.0, 1.0, 2.0)
    assert out == pytest.approx(2.0)


@pytest.mark.parametrize("k", [1, 2])
def test_prox_phi_star_s2_matches_radial_path(k):
    # s' = 2 returns Pbar/(1 + lam); the radial path rho(|Pbar|) Pbar/|Pbar| agrees within a few ulp
    rng = np.random.default_rng(8)
    Pbar = rng.uniform(-3.0, 3.0, size=(12, k))
    Pbar[:3] = 0.0  # zero rows stay zero
    Pbar[3] = -0.0
    for sigma, kappa in ((0.7, 1.0), (0.05, 2.5), (3.0, 0.3)):
        lam = sigma * kappa ** (1.0 - 2.0)
        n = np.sqrt((Pbar * Pbar).sum(axis=-1, keepdims=True))
        radial = power_prox(n, lam, 2.0) / np.where(n > 0.0, n, 1.0) * Pbar
        fast = prox_Phi_star(Pbar, sigma, kappa, 2.0)
        assert fast.shape == Pbar.shape
        assert np.all(np.abs(fast - radial) <= 4.0 * np.finfo(float).eps * np.abs(radial))
        assert np.all(fast[:4] == 0.0)


def test_prox_phi_star_brute_s3():
    out = prox_Phi_star(np.array([2.5]), 0.7, 1.3, 3.0)
    ref = brute_prox_phi_star(2.5, 0.7, 1.3, 3.0)
    assert out[0] == pytest.approx(ref, abs=1e-4)


def test_prox_phi_star_moreau_identity():
    rng = np.random.default_rng(1)
    for s in (1.5, 2.0, 3.0):
        P = rng.uniform(-2, 2, size=(20, 2))
        sigma = 0.8
        lhs = prox_Phi_star(P, sigma, 1.4, s)
        rhs = P - sigma * prox_Phi(P / sigma, 1.0 / sigma, 1.4, s)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_prox_phi_star_price_free():
    assert np.all(prox_Phi_star(np.ones((4, 1)), 1.0, 0.0, 2.0) == 0.0)


def test_prox_kinetic_stationary_point():
    for r in (1.5, 2.0, 3.0):
        m, w = prox_kinetic_congestion(np.array(1.0), np.array([0.0]), 0.7, 1.3, r)
        assert m == pytest.approx(1.0)
        assert w[0] == 0.0


def test_prox_kinetic_apex():
    m, w = prox_kinetic_congestion(np.array(-1.0), np.array([0.0]), 1.0, 1.0, 2.0)
    assert m == 0.0 and w[0] == 0.0
    # infeasible density with momentum still collapses when the pull is weak
    m, w = prox_kinetic_congestion(np.array(-2.0), np.array([0.5]), 1.0, 1.0, 2.0)
    assert m == 0.0 and w[0] == 0.0


def test_prox_kinetic_brute_force_r2():
    m, w = prox_kinetic_congestion(np.array(1.0), np.array([1.0]), 1.0, 1.0, 2.0)
    mb, wb = brute_prox_kinetic(1.0, 1.0, 1.0, 1.0, 2.0)
    assert m == pytest.approx(mb, abs=1e-3)
    assert w[0] == pytest.approx(wb, abs=1e-3)


def test_joint_prox_matches_generic_path_on_quadratic():
    # the q = r = 2 Newton fast path and the general joint Newton agree
    rng = np.random.default_rng(2)
    mbar = rng.uniform(-0.5, 2.5, size=64)
    wbar = rng.uniform(-1.5, 1.5, size=(1, 64))
    m1, w1 = prox_kinetic_congestion(mbar, wbar, 0.4, 1.2, 2.0, 0.9, 2.0)
    m2, w2 = prox_kinetic_congestion(mbar, wbar, 0.4, 1.2, 2.0 + 1e-14, 0.9, 2.0)
    assert np.max(np.abs(m1 - m2)) <= 1e-9
    assert np.max(np.abs(w1 - w2)) <= 1e-9


def _general_quadratic_prox_m(mbar, wbar, tau, c, theta):
    """m of the joint prox by the general path (the joint Newton of every other cell) at q = r = 2."""
    wnorm = np.sqrt(np.sum(wbar * wbar, axis=0))
    apex = mbar + tau * c * (wnorm / tau) ** 2 / 2.0 <= 0.0
    m, _ = _prox_joint(mbar, wnorm, tau, c, 2.0, theta, 2.0)
    return m, apex


def _quadratic_G(m, mbar, wnorm, tau, c, theta):
    """Stationarity in m at q = r = 2 with the momentum at its closed form c m/(c m + tau) |wbar|."""
    return (1.0 + tau * theta) * m - mbar - tau * c * wnorm**2 / (2.0 * (c * m + tau) ** 2)


def _quadratic_cases():
    rng = np.random.default_rng(4)
    n = 40
    mbar = rng.uniform(-0.5, 2.5, size=n)
    wbar = rng.uniform(-1.5, 1.5, size=(1, n))
    mbar[:4] = [-2.0, -1.0, -0.3, -1e-3]  # apex entries
    wbar[:, :4] = [0.1, 0.0, -0.2, 0.0]
    wbar[:, 4:8] = 0.0  # no momentum: the congestion-only prox itself
    mbar[8:12] = [-0.2, -0.05, -1e-8, -0.4]  # negative mbar off the apex
    wbar[:, 8:12] = [1.4, -1.0, 0.5, -1.5]
    return [
        ("per_node", mbar, wbar, 0.4, rng.uniform(0.01, 2.0, n), rng.uniform(0.0, 3.0, n)),
        ("scalar_coeffs", mbar, wbar, 0.37, 0.9, 1.1),
        ("d2", mbar, rng.uniform(-1.5, 1.5, size=(2, n)), 0.3, rng.uniform(0.5, 1.5, n), 0.7),
        ("scalar_0d", np.array(0.8), np.array([1.2]), 0.37, 0.9, 1.1),
        ("scalar_0d_negative", np.array(-0.1), np.array([0.9, -0.4]), 0.37, 1.0, 1.1),
        ("scalar_0d_apex", np.array(-1.0), np.array([0.1]), 0.37, 0.9, 1.1),
    ]


@pytest.mark.parametrize("case", _quadratic_cases(), ids=lambda case: case[0])
def test_quadratic_branch_matches_general_path(case):
    _, mbar, wbar, tau, c, theta = case
    c = np.broadcast_to(np.asarray(c, float), mbar.shape)
    theta = np.broadcast_to(np.asarray(theta, float), mbar.shape)
    m, w = prox_kinetic_congestion(mbar, wbar, tau, c, 2.0, theta, 2.0)
    m_ref, apex = _general_quadratic_prox_m(mbar, wbar, tau, c, theta)
    assert np.shape(m) == np.shape(mbar) and np.shape(w) == np.shape(wbar)
    assert np.all(np.abs(m - m_ref) <= 1e-12 * (1.0 + np.abs(mbar)))
    assert np.max(kinetic_kkt_residual(m, w, mbar, wbar, tau, c, 2.0, theta, 2.0)) <= 1e-10
    assert np.all(np.where(apex, m, 0.0) == 0.0) and np.all(w[:, apex] == 0.0)
    # the Newton start, the congestion-only prox, lies at or below the root;
    # where wbar = 0 it is the root, so G there is zero up to rounding
    wnorm = np.sqrt(np.sum(wbar * wbar, axis=0))
    start = np.maximum(mbar, 0.0) / (1.0 + tau * theta)
    G0 = _quadratic_G(start, mbar, wnorm, tau, c, theta)
    assert np.all(np.where(apex, 0.0, G0) <= 4.0 * np.finfo(float).eps * (1.0 + np.abs(mbar)))
    assert np.all((G0 < 0.0) | apex | (wnorm == 0.0))


def test_joint_prox_kkt_residuals():
    rng = np.random.default_rng(3)
    mbar = rng.uniform(-0.5, 2.0, size=50)
    wbar = rng.uniform(-1.5, 1.5, size=(2, 50))
    for r, q in [(2.0, 2.0), (1.5, 3.0), (3.0, 1.5), (2.5, 2.5)]:
        m, w = prox_kinetic_congestion(mbar, wbar, 0.37, 0.9, r, 1.1, q)
        res = kinetic_kkt_residual(m, w, mbar, wbar, 0.37, 0.9, r, 1.1, q)
        assert np.max(res) <= 1e-10
        assert np.min(m) >= 0.0
        wn = np.sqrt(np.sum(w * w, axis=0))
        assert np.all(wn[m == 0.0] == 0.0)


@settings(max_examples=300, deadline=None)
@given(q=st.floats(1.3, 3.5), r=st.floats(1.3, 3.5),
       theta=st.one_of(st.just(0.0), st.floats(0.01, 10.0)), tau=st.floats(1e-3, 1.5),
       c=st.floats(0.01, 2.5), mbar=st.floats(-2.0, 3.0), wnorm=st.floats(0.0, 3.0),
       angle=st.floats(0.0, 2.0 * np.pi), components=st.sampled_from([1, 2]))
def test_joint_prox_property(q, r, theta, tau, c, mbar, wnorm, angle, components):
    # every exponent cell: m >= 0, the apex convention and the KKT bound, and
    # no NoConvergence (it would propagate out of the call)
    wbar = wnorm * (np.array([np.cos(angle)]) if components == 1 else np.array([np.cos(angle), np.sin(angle)]))
    m, w = prox_kinetic_congestion(np.array(mbar), wbar, tau, c, r, theta, q)
    assert m >= 0.0
    if m == 0.0:
        assert np.all(w == 0.0)
    assert kinetic_kkt_residual(m, w, np.array(mbar), wbar, tau, c, r, theta, q) <= 1e-10


@settings(max_examples=300, deadline=None)
@given(nbar=st.floats(-3.0, 3.0), lam=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
       expo=st.floats(1.3, 4.4))
def test_power_prox_property(nbar, lam, expo):
    rho = float(power_prox(np.array(nbar), lam, expo))
    if nbar <= 0.0:
        assert rho == 0.0
    elif rho < TINY:
        # a root below the normal range settles there: the residual at TINY is >= 0
        assert TINY + lam * TINY ** (expo - 1.0) >= nbar * (1.0 - 1e-10)
    else:
        assert abs(rho + lam * rho ** (expo - 1.0) - nbar) <= 1e-10 * nbar


def test_prox_raises_on_bad_tau():
    with pytest.raises(ValueError):
        prox_F(np.array(1.0), 0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        prox_kinetic_congestion(np.array(1.0), np.array([0.0]), -1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        prox_Phi_star(np.array([1.0]), 0.0, 1.0, 2.0)
