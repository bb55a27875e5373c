import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfgcontrols.errors import NotPSD
from mfgcontrols.diagnostics import _integrate_Q_values
from mfgcontrols.grid import (
    Grid,
    check_psd,
    diffusion_rate,
    diffusion_stencil,
    diffusion_symbol,
    diffusion_values,
    div_values,
    grad_values,
    inner_Q,
    integrate_space_values,
    shift,
)
from mfgcontrols.verify import Solution


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(d=3, nx=8, nt=4, T=1.0)
    with pytest.raises(ValueError):
        Grid(d=1, nx=3, nt=4, T=1.0)
    with pytest.raises(ValueError):
        Grid(d=1, nx=8, nt=1, T=1.0)
    with pytest.raises(ValueError):
        Grid(d=1, nx=8, nt=4, T=0.0)


def test_gradient_constant_is_zero():
    g = Grid(d=2, nx=6, nt=2, T=1.0)
    u = np.full(g.scalar_shape, 5.0)
    assert np.all(grad_values(g, u) == 0.0)


def test_gradient_hand_values():
    g = Grid(d=1, nx=4, nt=2, T=1.0)
    u = np.tile(np.array([0.0, 1.0, 0.0, 1.0]), (3, 1))
    du = grad_values(g, u)
    assert np.allclose(du[:, 0], np.tile([4.0, -4.0, 4.0, -4.0], (3, 1)))


def test_gradient_sin_accuracy():
    g = Grid(d=1, nx=64, nt=2, T=1.0)
    x = g.axis_coords()
    u = np.tile(np.sin(2 * np.pi * x), (3, 1))
    du = grad_values(g, u)[:, 0]
    # forward difference is second-order at the midpoint
    mid = 2 * np.pi * np.cos(2 * np.pi * (x + g.hx / 2))
    assert np.max(np.abs(du - mid)) <= 1e-2


@pytest.mark.parametrize("d, lead", [(1, ()), (1, (3,)), (2, ()), (2, (3,)), (2, (2, 3))])
def test_grad_values_matches_shift_formula(d, lead):
    # differenced in place and divided into the output: the bytes of (shift(u, -1, ax) - u) / hx
    g = Grid(d=d, nx=6, nt=2, T=1.0)
    u = np.random.default_rng(4).standard_normal(lead + g.space_shape)
    du = grad_values(g, u)
    assert du.shape == lead + (d,) + g.space_shape
    for i in range(d):
        ax = len(lead) + i
        ref = (shift(u, -1, ax) - u) / g.hx
        assert du[(slice(None),) * len(lead) + (i,)].tobytes() == ref.tobytes()


def test_divergence_constant_is_zero():
    g = Grid(d=2, nx=6, nt=2, T=1.0)
    w = np.ones(g.vector_shape)
    assert np.all(div_values(g, w) == 0.0)


@pytest.mark.parametrize("d,nx", [(1, 8), (2, 8)])
def test_adjointness_random(d, nx):
    g = Grid(d=d, nx=nx, nt=3, T=2.0)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(g.scalar_shape)
    w = rng.standard_normal(g.vector_shape)
    lhs = inner_Q(g, grad_values(g, u), w)
    rhs = inner_Q(g, u, div_values(g, w))
    scale = np.linalg.norm(u) * np.linalg.norm(w)
    assert abs(lhs + rhs) <= 1e-12 * scale


def test_divergence_of_gradient_hand_composition():
    # div(grad u) must be the discrete Laplacian: positive at strict minima
    g = Grid(d=1, nx=4, nt=2, T=1.0)
    u = np.tile(np.array([0.0, 1.0, 0.0, 1.0]), (3, 1))
    lap = div_values(g, grad_values(g, u))
    assert np.allclose(lap[0], 16.0 * np.array([2.0, -2.0, 2.0, -2.0]))


def test_periodicity_shift_identity():
    g = Grid(d=1, nx=8, nt=2, T=1.0)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(g.scalar_shape)
    assert np.array_equal(np.roll(u, g.nx, axis=1), u)
    du = grad_values(g, u)
    assert np.allclose(np.roll(du, g.nx, axis=2), du)


@pytest.mark.parametrize("shape,axis", [((8,), 0), ((3, 8), 1), ((6, 8), 0), ((6, 8), 1),
                                        ((3, 6, 8), 1), ((3, 6, 8), 2), ((3, 2, 6, 8), 3)])
def test_shift_equals_roll(shape, axis):
    # d = 1 and d = 2 spatial layouts, with and without leading time/component axes
    u = np.random.default_rng(5).standard_normal(shape)
    for k in (-1, 1, -3, 2, 0, shape[axis] + 1):
        assert np.array_equal(shift(u, k, axis), np.roll(u, k, axis)), k


def test_diffusion_zero_matrix():
    g = Grid(d=2, nx=6, nt=2, T=1.0)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(g.scalar_shape)
    assert np.all(diffusion_values(g, diffusion_stencil(np.zeros((2, 2))), u) == 0.0)


def test_diffusion_sin_spectral():
    g = Grid(d=1, nx=64, nt=2, T=1.0)
    x = g.axis_coords()
    u = np.tile(np.sin(2 * np.pi * x), (3, 1))
    lap = diffusion_values(g, diffusion_stencil(np.array([[1.0]])), u)
    assert np.max(np.abs(lap + 4 * np.pi**2 * u)) <= 1e-1


def test_diffusion_constant_field():
    g = Grid(d=1, nx=8, nt=2, T=1.0)
    u = np.full(g.scalar_shape, 3.0)
    assert np.all(diffusion_values(g, diffusion_stencil(np.array([[1.0]])), u) == 0.0)


def test_diffusion_rejects_non_psd():
    with pytest.raises(NotPSD):
        check_psd(np.array([[1.0, 0.0], [0.0, -1e-6]]), 2)
    with pytest.raises(NotPSD):
        check_psd(np.array([[1.0, 0.5], [0.2, 1.0]]), 2)


def test_diffusion_self_adjoint():
    g = Grid(d=2, nx=6, nt=2, T=1.0)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(g.scalar_shape)
    v = rng.standard_normal(g.scalar_shape)
    # a diagonally dominant A (monotone split) and one that needs the centred cross difference
    for A in ([[2.0, 0.5], [0.5, 1.0]], [[1.0, 1.2], [1.2, 2.0]]):
        stencil = diffusion_stencil(np.array(A))
        lhs = inner_Q(g, diffusion_values(g, stencil, u), v)
        rhs = inner_Q(g, u, diffusion_values(g, stencil, v))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v)


# the four stencil shapes: 1-D, diagonal, dominant with e1 + e2 or e1 - e2, and the centred cross difference
@pytest.mark.parametrize("A", [[[0.3]], [[0.3, 0.0], [0.0, 0.2]], [[0.3, 0.1], [0.1, 0.2]],
                               [[0.3, -0.2], [-0.2, 0.2]], [[0.1, 0.2], [0.2, 0.5]]])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_diffusion_values_matches_roll_formula(A, lead):
    # the shifted neighbours are slice copies: the bytes of the np.roll formula, same arithmetic order
    stencil = diffusion_stencil(np.array(A))
    g = Grid(d=len(A), nx=6, nt=2, T=1.0)
    u = np.random.default_rng(6).standard_normal(lead + g.space_shape)
    axes = tuple(range(len(lead), u.ndim))
    ref = np.zeros_like(u)
    for e, rho in stencil:
        ref += rho * (np.roll(u, [-k for k in e], axes) - 2.0 * u + np.roll(u, e, axes)) / g.hx**2
    assert diffusion_values(g, stencil, u).tobytes() == ref.tobytes()


@st.composite
def psd_matrices(draw):
    """A symmetric PSD A in d = 1 or 2: diagonal, diagonally dominant, or B B^T with any cross term."""
    d = draw(st.sampled_from([1, 2]))
    diag = [draw(st.floats(0.0, 2.0)) for _ in range(d)]
    A = np.diag(diag)
    kind = draw(st.sampled_from(["diagonal", "dominant", "BBt"]))
    if d == 2 and kind == "dominant":
        A[0, 1] = A[1, 0] = draw(st.floats(-1.0, 1.0)) * min(diag)
    elif d == 2 and kind == "BBt":
        B = np.array([[draw(st.floats(-1.0, 1.0)) for _ in range(2)] for _ in range(2)])
        A = B @ B.T
    return A


@settings(max_examples=200, deadline=None)
@given(psd_matrices())
@example(np.array([[0.0, 5e-324], [5e-324, 1.0]]))  # a_12/2 underflows: the centred weights would vanish
def test_diffusion_stencil_splits_A(A):
    # A = sum rho_e e e^T to rounding; every rho_e >= 0 exactly when A is diagonally dominant;
    # a diagonal A gives its nonzero axis terms in axis order
    stencil = diffusion_stencil(A)
    d = len(A)
    rebuilt = sum((rho * np.outer(e, e) for e, rho in stencil), np.zeros((d, d)))
    assert np.max(np.abs(rebuilt - A)) <= 1e-15 * (1.0 + np.max(np.abs(A)))
    assert all(rho != 0.0 and len(e) == d for e, rho in stencil)
    dominant = d == 1 or min(A[0, 0], A[1, 1]) >= abs(A[0, 1])
    assert all(rho >= 0.0 for _, rho in stencil) == dominant
    if d == 1 or A[0, 1] == 0.0:
        axis_terms = [(tuple(int(i == j) for j in range(d)), A[i, i]) for i in range(d) if A[i, i] != 0.0]
        assert list(stencil) == axis_terms


def test_diffusion_symbol_and_rate_of_the_stencil():
    # the symbol is minus the eigenvalue of diffusion_values on each Fourier mode, and
    # lies in [0, 2 rate]: each term rho_e (2 sin(e.theta/2)/hx)^2 is at most 4 |rho_e| / hx^2
    g = Grid(d=2, nx=8, nt=2, T=1.0)
    X, Y = g.meshgrid()
    for A in ([[0.3, 0.1], [0.1, 0.2]], [[0.3, -0.3], [-0.3, 0.3]], [[0.1, 0.2], [0.2, 0.5]]):
        stencil = diffusion_stencil(np.array(A))
        for k1, k2 in ((1, 0), (2, 3), (4, 4), (3, -1)):
            th = (2 * np.pi * k1 / g.nx, 2 * np.pi * k2 / g.nx)
            mode = np.cos(2 * np.pi * (k1 * X + k2 * Y))
            lam = diffusion_symbol(g, stencil, th)
            assert np.max(np.abs(diffusion_values(g, stencil, mode) + lam * mode)) <= 1e-12 * g.nx**2
            assert 0.0 <= lam <= 2.0 * diffusion_rate(g, stencil)


def test_integrate_space_and_Q():
    g = Grid(d=2, nx=8, nt=5, T=2.0)
    f = np.ones(g.scalar_shape)
    assert float(integrate_space_values(g, f[0])) == pytest.approx(1.0, abs=1e-14)
    assert _integrate_Q_values(g, f) == pytest.approx(2.0, abs=1e-14)


def test_m0_normalization_contract():
    from mfgcontrols.model import ProblemSpec

    g = Grid(d=1, nx=16, nt=2, T=1.0)
    rng = np.random.default_rng(4)
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, m0=rng.uniform(0.5, 2.0, size=16))
    assert abs(float(spec.m0.sum()) * g.cell_volume - 1.0) <= 1e-14


def test_field_shape_validation():
    g = Grid(d=1, nx=8, nt=2, T=1.0)
    fields = dict(u=np.zeros(g.scalar_shape), m=np.ones(g.scalar_shape), w=np.zeros(g.vector_shape),
                  P=np.zeros((g.nt + 1, 1)), gamma=np.zeros(g.scalar_shape))
    Solution(grid=g, **fields)
    with pytest.raises(ValueError):
        Solution(grid=g, **{**fields, "u": np.zeros((2, 8))})
    with pytest.raises(ValueError):
        Solution(grid=g, **{**fields, "w": np.zeros((3, 2, 8))})
    bad = np.zeros(g.scalar_shape)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Solution(grid=g, **{**fields, "m": bad})
