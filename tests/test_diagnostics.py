import numpy as np
import pytest

from mfgcontrols.diagnostics import (
    diagnose,
    j1,
    space_regularity,
    space_shift_sum,
    time_norms,
    time_shift_sum,
)
from mfgcontrols.errors import InvalidOption
from mfgcontrols.grid import Grid
from mfgcontrols.instances import uniform_instance
from mfgcontrols.model import ProblemSpec
from mfgcontrols.verify import Solution


def exact_uniform_solution(spec):
    g = spec.grid
    t = g.times()
    return Solution(
        grid=g,
        u=np.tile((g.T - t)[:, None], (1, g.nx)),
        m=np.ones(g.scalar_shape),
        w=np.zeros(g.vector_shape),
        P=np.zeros((g.nt + 1, spec.k)),
        gamma=np.ones(g.scalar_shape),
    )


@pytest.fixture(scope="module")
def uni():
    return uniform_instance(nx=16, nt=16)


def test_j_maps_identity_at_r2(uni):
    xi = np.array([[0.3, -0.7], [1.0, 2.0]])
    assert np.allclose(j1(xi, uni), xi)


def test_j_maps_hand_value_r4():
    g = Grid(d=2, nx=4, nt=2, T=1.0)
    spec = ProblemSpec(grid=g, q=2, r=4.0, s=2, m0=np.ones((4, 4)))
    out = j1(np.array([4.0, 0.0]), spec)
    assert np.allclose(out, [16.0, 0.0])  # |xi|^(r/2-1) xi = 4 * (4, 0)


def test_j_maps_zero(uni):
    assert np.all(j1(np.zeros(2), uni) == 0.0)


def test_space_regularity_constant_solution(uni):
    sol = exact_uniform_solution(uni)
    nm, nj = space_regularity(sol, uni)
    assert nm == 0.0
    assert nj == 0.0


def test_space_regularity_sine_profile():
    # m = 1 + sin(2 pi x)/2 constant in t, q = 2: the squared norm is
    # T * integral |Dm|^2 = T * pi^2 / 2 up to the forward-difference bias
    g = Grid(d=1, nx=128, nt=4, T=1.0)
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, m0=np.ones(128))
    x = g.axis_coords()
    m = np.tile(1.0 + 0.5 * np.sin(2 * np.pi * x), (g.nt + 1, 1))
    sol = Solution(grid=g, u=np.zeros(g.scalar_shape), m=m, w=np.zeros(g.vector_shape),
                   P=np.zeros((g.nt + 1, 1)), gamma=spec.coupling_f(m))
    nm, _ = space_regularity(sol, spec)
    assert nm**2 == pytest.approx(np.pi**2 / 2.0, rel=2e-3)


def test_time_shift_sum_zero_at_zero(uni):
    sol = exact_uniform_solution(uni)
    assert time_shift_sum(sol, uni, 0.0) == 0.0


def test_time_shift_sum_uniform_any_eps(uni):
    sol = exact_uniform_solution(uni)
    # spatially and temporally constant m, P: the sum vanishes; u = T - t is
    # spatially constant so its gradient term vanishes too
    for eps in (0.02, -0.05, 0.1):
        assert abs(time_shift_sum(sol, uni, eps)) <= 1e-14


def test_time_shift_sum_sign_symmetry_uniform(uni):
    sol = exact_uniform_solution(uni)
    assert abs(time_shift_sum(sol, uni, 0.03) - time_shift_sum(sol, uni, -0.03)) <= 1e-8


def test_time_shift_rejects_large_eps(uni):
    sol = exact_uniform_solution(uni)
    for eps in (uni.grid.T / 2, -uni.grid.T / 2, uni.grid.T / 4, np.nan):
        with pytest.raises(InvalidOption):
            time_shift_sum(sol, uni, eps)


def test_time_shift_requires_zero_diffusion():
    g = Grid(d=1, nx=16, nt=16, T=1.0)
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, A=np.array([[0.1]]), m0=np.ones(16))
    sol = exact_uniform_solution(spec)
    with pytest.raises(ValueError, match="zero diffusion"):
        time_shift_sum(sol, spec, 0.02)


def test_space_shift_sum_zero_and_grid_check(uni):
    sol = exact_uniform_solution(uni)
    assert space_shift_sum(sol, uni, 0.0) == 0.0
    assert space_shift_sum(sol, uni, 3 * uni.grid.hx) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(InvalidOption):
        space_shift_sum(sol, uni, 1.5 * uni.grid.hx)


def test_space_shift_nonneg_on_noise(uni):
    g = uni.grid
    rng = np.random.default_rng(0)
    m = np.abs(1 + 0.4 * rng.standard_normal(g.scalar_shape))
    sol = Solution(grid=g, u=rng.standard_normal(g.scalar_shape), m=m,
                   w=np.zeros(g.vector_shape), P=rng.standard_normal((g.nt + 1, 1)),
                   gamma=uni.coupling_f(m))
    for k in (1, 2, 4):
        assert space_shift_sum(sol, uni, k * g.hx) >= 0.0
    for eps in (0.02, 0.05):
        assert time_shift_sum(sol, uni, eps) >= 0.0


def test_time_norms_uniform(uni):
    sol = exact_uniform_solution(uni)
    tm, tp = time_norms(sol, uni, 0.1)
    assert tm == 0.0
    assert tp == 0.0


def test_space_shift_quadratic_scaling(bump_spec, bump_solved):
    sol, _ = bump_solved
    g = bump_spec.grid
    deltas = [g.hx, 2 * g.hx, 4 * g.hx]
    sums = [space_shift_sum(sol, bump_spec, d) for d in deltas]
    ratios = [sums[i] / deltas[i] ** 2 for i in range(3)]
    assert max(ratios) / min(ratios) <= 2.0


def test_time_shift_slope_insensitive_to_bump_choice(bump_spec, bump_solved):
    # a different smooth reparametrization bump gives the same scaling exponent
    sol, _ = bump_solved
    T = bump_spec.grid.T
    poly = lambda t: 16.0 * (t * (T - t) / T**2) ** 2
    eps_list = [0.02, 0.04, 0.08]
    for eta in (None, poly):
        sums = [time_shift_sum(sol, bump_spec, e, eta_fn=eta) for e in eps_list]
        slope = float(np.polyfit(np.log(eps_list), np.log(sums), 1)[0])
        assert abs(slope - 2.0) <= 0.3


def test_diagnose_record_assembly(bump_spec, bump_solved):
    sol, _ = bump_solved
    g = bump_spec.grid
    rec = diagnose(sol, bump_spec, eps_list=[0.02, 0.04], delta_list=[g.hx, 2 * g.hx])
    d = rec.to_dict()
    assert d["space_norm_m"] > 0.0
    assert len(d["time_shift_sums"]) == 2
    assert len(d["space_shift_sums"]) == 2
    assert all(v >= 0.0 for v in rec.time_shift_sums.values())
