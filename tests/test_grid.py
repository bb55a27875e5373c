import numpy as np
import pytest

from mfgcontrols.errors import NotPSD
from mfgcontrols.diagnostics import _integrate_Q_values
from mfgcontrols.grid import (
    Grid,
    check_psd,
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
    assert np.all(diffusion_values(g, np.zeros((2, 2)), u) == 0.0)


def test_diffusion_sin_spectral():
    g = Grid(d=1, nx=64, nt=2, T=1.0)
    x = g.axis_coords()
    u = np.tile(np.sin(2 * np.pi * x), (3, 1))
    lap = diffusion_values(g, np.array([[1.0]]), u)
    assert np.max(np.abs(lap + 4 * np.pi**2 * u)) <= 1e-1


def test_diffusion_constant_field():
    g = Grid(d=1, nx=8, nt=2, T=1.0)
    u = np.full(g.scalar_shape, 3.0)
    assert np.all(diffusion_values(g, np.array([[1.0]]), u) == 0.0)


def test_diffusion_rejects_non_psd():
    with pytest.raises(NotPSD):
        check_psd(np.array([[1.0, 0.0], [0.0, -1e-6]]), 2)
    with pytest.raises(NotPSD):
        check_psd(np.array([[1.0, 0.5], [0.2, 1.0]]), 2)


def test_diffusion_self_adjoint():
    g = Grid(d=2, nx=6, nt=2, T=1.0)
    rng = np.random.default_rng(3)
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    u = rng.standard_normal(g.scalar_shape)
    v = rng.standard_normal(g.scalar_shape)
    lhs = inner_Q(g, diffusion_values(g, A, u), v)
    rhs = inner_Q(g, u, diffusion_values(g, A, v))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v)


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
