import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfgcontrols.errors import HypothesisViolation
from mfgcontrols.grid import Grid
from mfgcontrols.instances import uniform_instance
from mfgcontrols.model import (
    ProblemSpec,
    case_2b_condition,
    check_assumptions,
    classify_exponents,
    conjugate_exponent,
    eta_bar,
    kappa_bar,
    power_conjugate_coeff,
    power_gradient,
    power_value,
    search_rtilde_2b,
)

exponents = st.floats(min_value=1.1, max_value=6.0)


def psi_inv(spec, P):
    """The inverse of spec.Psi off the price-free mode: the gradient of Phi*."""
    return power_gradient(P, power_conjugate_coeff(spec.kappa_phi, spec.s), spec.s_prime)


def small_spec(**kw):
    g = Grid(d=1, nx=8, nt=4, T=1.0)
    defaults = dict(grid=g, q=2.0, r=2.0, s=2.0, kappa_phi=1.0, theta=1.0, c=1.0,
                    phi=1.0, A=None, m0=np.ones(8), uT=0.0, k=1)
    defaults.update(kw)
    return ProblemSpec(**defaults)


# -- Hamiltonian family ---------------------------------------------------------


def test_hamiltonian_quadratic_self_conjugate():
    spec = small_spec()
    xi = np.zeros((1, 8)); xi[0] = 1.5
    assert np.allclose(spec.hamiltonian(xi), 1.5**2 / 2)
    assert np.allclose(spec.ham_conjugate(xi), 1.5**2 / 2)
    assert np.allclose(spec.dH(xi), xi)


def test_hamiltonian_hand_values_c2():
    spec = small_spec(c=2.0)
    xi = np.zeros((1, 8)); xi[0] = 1.0
    assert np.allclose(spec.hamiltonian(xi), 1.0)
    dh = spec.dH(xi)
    assert np.allclose(dh, 2.0 * xi)
    assert np.allclose(spec.ham_conjugate(dh), 1.0)
    # Fenchel-Young equality at the gradient
    assert np.allclose(spec.hamiltonian(xi) + spec.ham_conjugate(dh), np.sum(xi * dh, axis=0))


def test_power_gradient_quadratic_bit_identical():
    # expo = 2 is computed as coeff * xi; the general formula, bytes and zero signs included
    rng = np.random.default_rng(5)
    xi = rng.standard_normal((3, 2, 8))
    xi[0, :, :3] = 0.0
    xi[1, :, 2:5] = -0.0
    xi[2, 0, 5] = -0.0  # a signed zero component of a nonzero vector
    for coeff, axis in ((1.0, 1), (0.7, 1), (rng.uniform(0.5, 2.0, 8), 1), (2.5, 0), (2.5, -1)):
        n = np.linalg.norm(xi, axis=axis, keepdims=True)
        general = np.where(n > 0.0, coeff * np.where(n > 0.0, n, 1.0) ** 0.0, 0.0) * xi
        fast = power_gradient(xi, coeff, 2.0, axis)
        assert fast.shape == general.shape
        assert fast.tobytes() == general.tobytes()


def test_power_value_quadratic_bit_identical():
    # expo = 2 skips the ** 1.0 of the general formula; the bytes, zeros included, are the same
    rng = np.random.default_rng(5)
    xi = rng.standard_normal((3, 2, 8))
    xi[0, :, :3] = 0.0
    xi[1, :, 2:5] = -0.0
    xi[2, 0, 5] = -0.0
    for coeff, axis in ((1.0, 1), (0.7, 1), (rng.uniform(0.5, 2.0, 8), 1), (2.5, 0), (2.5, -1)):
        general = coeff / 2.0 * (xi * xi).sum(axis=axis) ** (0.5 * 2.0)
        fast = power_value(xi, coeff, 2.0, axis)
        assert fast.shape == general.shape
        assert fast.tobytes() == general.tobytes()


def test_hamiltonian_zero():
    spec = small_spec(r=3.0)
    xi = np.zeros((1, 8))
    assert np.all(spec.hamiltonian(xi) == 0.0)
    assert np.all(spec.dH(xi) == 0.0)


@settings(max_examples=50, deadline=None)
@given(r=exponents, c=st.floats(0.2, 5.0), x=st.floats(-3, 3), y=st.floats(-3, 3))
def test_fenchel_young_hamiltonian(r, c, x, y):
    g = Grid(d=2, nx=4, nt=2, T=1.0)
    spec = ProblemSpec(grid=g, q=2.0, r=r, s=2.0, c=c, m0=np.ones((4, 4)))
    xi = np.zeros((2, 4, 4))
    xi[0], xi[1] = x, y
    dh = spec.dH(xi)
    lhs = spec.hamiltonian(xi) + spec.ham_conjugate(dh)
    rhs = np.sum(xi * dh, axis=0)
    assert np.all(np.abs(lhs - rhs) <= 1e-10 * (1.0 + np.abs(rhs)))


def test_growth_sandwich():
    g = Grid(d=1, nx=8, nt=4, T=1.0)
    c = np.linspace(0.5, 2.0, 8)
    spec = ProblemSpec(grid=g, q=2, r=2.5, s=2, c=c, m0=np.ones(8))
    rng = np.random.default_rng(0)
    xi = rng.standard_normal((1, 8)) * 2
    H = spec.hamiltonian(xi)
    n = np.abs(xi[0])
    assert np.all(H >= 0.5 * n**2.5 / 2.5 - 1e-14)
    assert np.all(H <= 2.0 * n**2.5 / 2.5 + 1e-14)


# -- congestion family ----------------------------------------------------------


def test_coupling_quadratic_pair():
    spec = small_spec()
    m = np.full((8,), 0.7)
    assert np.allclose(spec.coupling_f(m), 0.7)
    assert np.allclose(spec.F(m), 0.7**2 / 2)
    assert np.allclose(spec.F_star(m), 0.7**2 / 2)


def test_F_star_vanishes_below_zero():
    spec = small_spec(q=3.0, theta=2.0)
    assert np.all(spec.F_star(np.full((8,), -3.0)) == 0.0)
    assert np.all(spec.F_star(np.zeros(8)) == 0.0)


def test_congestion_hand_values():
    spec = small_spec(q=3.0, theta=2.0)
    m = np.ones(8)
    f = spec.coupling_f(m)
    assert np.allclose(f, 2.0)
    assert np.allclose(spec.F(m), 2.0 / 3.0)
    assert np.allclose(spec.F_star(f), 4.0 / 3.0)
    # Fenchel-Young equality: F(1) + F*(f(1)) = f(1) * 1
    assert np.allclose(spec.F(m) + spec.F_star(f), f * m)


def test_negative_density_reads_as_zero():
    # f and F read a density at its positive part m+: at -0.1 they are f and F at 0, bit for bit
    m = np.array([-0.1, 0.0, 0.3, -0.1, 1.0, 2.0, -0.1, 0.5])
    for q in (2.0, 3.0, 1.5):
        spec = small_spec(q=q)
        for m_neg, m_plus in ((np.full(8, -0.1), np.zeros(8)), (m, np.maximum(m, 0.0))):
            assert spec.coupling_f(m_neg).tobytes() == spec.coupling_f(m_plus).tobytes()
            assert spec.F(m_neg).tobytes() == spec.F(m_plus).tobytes()


@pytest.mark.filterwarnings("error")  # the overflow is refused, not warned about
@pytest.mark.parametrize("field, value, admitted, hypothesis", [
    ("c", 1e305, 1e300, "H2_hamiltonian"),  # d c / hx^r = 4096 c overflows on nx = 64
    ("c", 1e-320, 1e-300, "H2_hamiltonian"),  # c^(1-r') = 1 / c overflows
    ("theta", 1e-320, 1e-300, "H1_congestion"),  # theta^(1-p) = 1 / theta overflows
])
def test_overflowing_coefficient_is_refused_naming_its_field(field, value, admitted, hypothesis):
    g = Grid(d=1, nx=64, nt=8, T=1.0)
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, m0=np.ones(64), **{field: value})
    rep = check_assumptions(spec)
    assert [name for name, _ in rep.failures] == [hypothesis]
    with pytest.raises(HypothesisViolation, match=f"^{hypothesis} violated: {field} overflows"):
        classify_exponents(spec)
    ok = check_assumptions(ProblemSpec(grid=g, q=2, r=2, s=2, m0=np.ones(64), **{field: admitted}))
    assert ok.passed, ok.failures


@settings(max_examples=50, deadline=None)
@given(q=exponents, theta=st.floats(0.2, 5.0), m=st.floats(0.01, 10.0))
def test_fenchel_young_congestion(q, theta, m):
    spec = small_spec(q=q, theta=theta)
    mv = np.full((8,), m)
    f = spec.coupling_f(mv)
    gap = spec.F(mv) + spec.F_star(f) - f * mv
    assert np.all(np.abs(gap) <= 1e-10 * (1.0 + f * mv))


# -- price family ---------------------------------------------------------------


def test_price_maps_s2_identity():
    spec = small_spec()
    z = np.array([[0.4], [-1.2]])
    assert np.allclose(spec.Psi(z), z)
    assert np.allclose(psi_inv(spec, z), z)
    assert np.allclose(spec.Phi(z), 0.5 * z[:, 0] ** 2)


def test_phi_at_zero_is_zero():
    spec = small_spec(s=2.7, kappa_phi=1.4)
    assert spec.Phi(np.zeros((1, 1)))[0] == 0.0


def test_price_hand_inversion_s3():
    spec = small_spec(s=3.0)
    z = np.array([[2.0]])
    assert np.allclose(spec.Phi(z), 8.0 / 3.0)
    P = spec.Psi(z)
    assert np.allclose(P, 4.0)
    assert np.allclose(psi_inv(spec, P), 2.0)


@settings(max_examples=50, deadline=None)
@given(s=exponents, kappa=st.floats(0.2, 5.0), z=st.floats(-4, 4))
def test_psi_inverse_roundtrip(s, kappa, z):
    spec = small_spec(s=s, kappa_phi=kappa)
    zz = np.array([[z, 0.3 * z]])
    g = Grid(d=1, nx=8, nt=4, T=1.0)
    spec2 = ProblemSpec(grid=g, q=2, r=2, s=s, kappa_phi=kappa, m0=np.ones(8), k=2)
    back = psi_inv(spec2, spec2.Psi(zz))
    assert np.all(np.abs(back - zz) <= 1e-10 * (1.0 + np.abs(zz)))


def test_price_free_mode():
    spec = small_spec(kappa_phi=0.0)
    z = np.array([[0.7]])
    assert spec.Phi(z)[0] == 0.0
    assert np.all(spec.Psi(z) == 0.0)
    assert spec.Phi_star(np.array([[0.0]]))[0] == 0.0
    assert np.isinf(spec.Phi_star(np.array([[0.1]]))[0])


# -- exponent bookkeeping -------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(q=exponents, r=exponents)
def test_sigma_conjugate_identity(q, r):
    # sigma' = r p, i.e. 1/sigma + 1/(r p) = 1
    p = conjugate_exponent(q)
    rp = conjugate_exponent(r)
    sigma = rp * q / (rp + q - 1.0)
    assert abs(1.0 / sigma + 1.0 / (r * p) - 1.0) <= 1e-12


def test_kappa_bar_hand_value():
    assert kappa_bar(2.0, 1.0, 1) == pytest.approx(4.0)
    assert eta_bar(2.0, 1.0, 1) == pytest.approx(1.0)


def test_kappa_bar_sentinels():
    assert np.isinf(kappa_bar(2.0, 3.0, 1))  # above the critical line
    assert kappa_bar(2.0, 1.5, 1) == pytest.approx(1e6)  # borderline p = 1 + d/r


def test_classify_canonical_case_2b():
    info = classify_exponents(uniform_instance(nx=8, nt=4))
    assert info.case_label == "2B"
    assert info.p == pytest.approx(2.0)
    assert info.s_prime == pytest.approx(2.0)
    assert info.sigma == pytest.approx(4.0 / 3.0)
    assert 1.0 < info.r_tilde <= 2.0
    assert info.kappa >= info.p


def test_classify_violation_strict_inequality():
    # s' = 1.2 (s = 6), p = 2, d = 2: the marginal cell fails strictly
    g = Grid(d=2, nx=4, nt=2, T=1.0)
    spec = ProblemSpec(grid=g, q=2.0, r=2.0, s=6.0, m0=np.ones((4, 4)))
    with pytest.raises(HypothesisViolation):
        classify_exponents(spec)
    rep = check_assumptions(spec)
    assert not rep.passed
    assert dict(rep.failures).get("H5_exponents") is not None


def test_case_2b_lemma_equivalence_small():
    rng = np.random.default_rng(5)
    for _ in range(60):
        sp = float(rng.uniform(1.05, 4.0))
        p = float(rng.uniform(1.05, 4.0))
        d = int(rng.integers(1, 4))
        r = float(rng.uniform(1.05, sp))  # ensure s' >= r
        direct = case_2b_condition(sp, p, d)
        scanned = search_rtilde_2b(sp, p, r, d) is not None
        assert direct == scanned, (sp, p, d, r)


def test_h5_report_and_classifier_agree_on_scan_boundary_triple():
    # case_2b_condition admits this case-2B triple only in the limit r_tilde -> 1,
    # which the r_tilde scan never reaches: the report and the classifier both refuse it
    spec = small_spec(q=1.6744917748745711, r=1.0816638739938083, s=10.245277991314826)
    assert spec.r <= spec.s_prime and case_2b_condition(spec.s_prime, spec.p, 1)
    assert search_rtilde_2b(spec.s_prime, spec.p, spec.r, 1) is None
    rep = check_assumptions(spec)
    assert [name for name, _ in rep.failures] == ["H5_exponents"]
    with pytest.raises(HypothesisViolation, match="H5_exponents"):
        classify_exponents(spec)


def test_check_assumptions_canonical_passes():
    rep = check_assumptions(uniform_instance(nx=8, nt=4))
    assert rep.passed, rep.failures


def test_check_assumptions_m0_zero_node():
    g = Grid(d=1, nx=8, nt=4, T=1.0)
    m0 = np.ones(8)
    m0[3] = 0.0
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, m0=m0)
    rep = check_assumptions(spec)
    assert not rep.passed
    assert any(name == "H4_boundary_data" for name, _ in rep.failures)


def test_check_assumptions_nonconstant_phi():
    # 1/s + 1/(p r) = 1/4 + 1/8 < 1 forces a constant aggregation kernel
    g = Grid(d=1, nx=8, nt=4, T=1.0)
    phi = np.linspace(0.5, 1.5, 8).reshape(1, 1, 8)
    spec = ProblemSpec(grid=g, q=2.0, r=4.0, s=4.0, phi=phi, m0=np.ones(8))
    rep = check_assumptions(spec)
    assert any(name == "H1_phi_constant" for name, _ in rep.failures)
    # with a constant kernel the same exponents pass
    spec2 = ProblemSpec(grid=g, q=2.0, r=4.0, s=4.0, phi=1.0, m0=np.ones(8))
    assert check_assumptions(spec2).passed


def test_case_info_invariants_random():
    rng = np.random.default_rng(6)
    g1 = Grid(d=1, nx=8, nt=4, T=1.0)
    accepted = 0
    for _ in range(40):
        q, r, s = (float(rng.uniform(1.2, 4.0)) for _ in range(3))
        spec = ProblemSpec(grid=g1, q=q, r=r, s=s, m0=np.ones(8))
        try:
            info = classify_exponents(spec)
        except HypothesisViolation:
            continue
        accepted += 1
        assert 1.0 < info.r_tilde <= spec.r + 1e-12
        assert info.kappa >= info.p - 1e-9
    assert accepted > 5
