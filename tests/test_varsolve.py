import numpy as np
import pytest

from mfgcontrols.errors import InvalidOption, StepSizeViolation
from mfgcontrols.grid import Grid, div_values, grad_values
from mfgcontrols.instances import uniform_instance
from mfgcontrols.model import ProblemSpec
from mfgcontrols.varsolve import (
    SolverOptions,
    _adjoint_m,
    _adjoint_w,
    _constraint,
    dual_gamma,
    estimate_operator_norm,
    eval_B,
    eval_D,
    residuals,
    solve_primal_dual,
)
from oracle import transport_matrix


@pytest.fixture(scope="module")
def spec8():
    g = Grid(d=1, nx=8, nt=4, T=1.0)
    return ProblemSpec(grid=g, q=2, r=2, s=2, m0=np.ones(8))


def exact_uniform_fields(spec):
    # (nt+1)-slot fields; the functionals take interval fields u, P = f[:nt]
    # and m, w, gamma = f[1:]
    g = spec.grid
    t = g.times()
    u = np.tile((g.T - t)[:, None], (1, g.nx))
    m = np.ones(g.scalar_shape)
    w = np.zeros(g.vector_shape)
    P = np.zeros((g.nt + 1, spec.k))
    gamma = np.ones(g.scalar_shape)
    return u, m, w, P, gamma


# -- functionals ---------------------------------------------------------------


def test_eval_B_uniform_value(spec8):
    _, m, w, _, _ = exact_uniform_fields(spec8)
    assert eval_B(m[1:], w[1:], spec8) == pytest.approx(0.5)  # T/2 with theta = 1, q = 2


def test_eval_B_perspective_violation_is_inf(spec8):
    _, m, w, _, _ = exact_uniform_fields(spec8)
    m[2, 3] = 0.0
    w[2, 0, 3] = 0.5
    assert eval_B(m[1:], w[1:], spec8) == np.inf
    m[1, 1] = -1e-3
    assert eval_B(m[1:], w[1:], spec8) == np.inf


def test_eval_B_terminal_cost():
    g = Grid(d=1, nx=8, nt=4, T=1.0)
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, m0=np.ones(8), uT=3.0)
    m = np.ones(g.scalar_shape)
    w = np.zeros(g.vector_shape)
    assert eval_B(m[1:], w[1:], spec) == pytest.approx(0.5 + 3.0)


def test_eval_D_values(spec8):
    g = spec8.grid
    u = np.zeros((g.nt, g.nx))
    P = np.zeros((g.nt, 1))
    gamma = np.zeros((g.nt, g.nx))
    assert eval_D(u, P, gamma, spec8) == 0.0
    u1 = np.ones((g.nt, g.nx))
    assert eval_D(u1, P, gamma, spec8) == pytest.approx(-1.0)
    gamma1 = np.ones((g.nt, g.nx))
    assert eval_D(u, P, gamma1, spec8) == pytest.approx(0.5)  # F*(1) = 1/2 over the cylinder


def test_duality_gap_zero_at_exact_uniform(spec8):
    u, m, w, P, gamma = exact_uniform_fields(spec8)
    nt = spec8.grid.nt
    assert abs(eval_B(m[1:], w[1:], spec8) + eval_D(u[:nt], P[:nt], gamma[1:], spec8)) <= 1e-14


# -- transport constraint --------------------------------------------------------


def test_fp_constraint_stationary(spec8):
    g = spec8.grid
    m = np.broadcast_to(spec8.m0, g.scalar_shape).copy()
    w = np.zeros(g.vector_shape)
    R, _, fp_res, _ = residuals(spec8, m[1:], w[1:], np.zeros((g.nt, 1)), m_start=m[0])
    assert np.max(np.abs(R)) == 0.0
    assert fp_res == 0.0


def test_fp_constraint_linearity_in_divergence(spec8):
    g = spec8.grid
    rng = np.random.default_rng(0)
    m = np.broadcast_to(spec8.m0, g.scalar_shape).copy()
    pot = rng.standard_normal(g.scalar_shape)
    w = grad_values(g, pot)
    R, _, fp_res, _ = residuals(spec8, m[1:], w[1:], np.zeros((g.nt, 1)), m_start=m[0])
    div = div_values(g, w[1:])
    assert np.allclose(R, div)
    assert fp_res == pytest.approx(float(np.sum(np.abs(div)) * g.ht * g.cell_volume))


def _check_constraint_adjoint(spec, seed):
    # <_constraint(m, w, 0), U> = <_adjoint_m(U), m> + <_adjoint_w(U), w> on interval variables
    g = spec.grid
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((g.nt, *g.space_shape))
    w = rng.standard_normal((g.nt, g.d, *g.space_shape))
    U = rng.standard_normal((g.nt, *g.space_shape))
    lhs = float(np.sum(_constraint(spec, m, w, 0.0) * U))
    rhs = float(np.sum(_adjoint_m(spec, U) * m) + np.sum(_adjoint_w(spec, U) * w))
    scale = np.linalg.norm(U) * (np.linalg.norm(m) + np.linalg.norm(w))
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_constraint_adjoint_identity(spec8):
    _check_constraint_adjoint(spec8, 1)


def test_constraint_adjoint_identity_with_diffusion():
    g = Grid(d=2, nx=6, nt=3, T=1.0)
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, A=np.array([[0.4, 0.1], [0.1, 0.2]]),
                       m0=np.ones((6, 6)))
    _check_constraint_adjoint(spec, 2)


@pytest.mark.parametrize("case", ["1d", "2d-diffusion"])
def test_affine_residual_reuse(spec8, case):
    # the dual step evaluates R and Z at 2 x1 - x0 as 2 R1 - R0 and 2 Z1 - Z0
    if case == "1d":
        spec = spec8
    else:
        g2 = Grid(d=2, nx=6, nt=3, T=1.0)
        spec = ProblemSpec(grid=g2, q=2, r=2, s=2, A=np.array([[0.4, 0.1], [0.1, 0.2]]),
                           m0=np.ones((6, 6)))
    g = spec.grid
    rng = np.random.default_rng(9)
    m0, m1 = rng.standard_normal((2, g.nt, *g.space_shape))
    w0, w1 = rng.standard_normal((2, g.nt, g.d, *g.space_shape))
    R0, R1 = _constraint(spec, m0, w0), _constraint(spec, m1, w1)
    assert np.max(np.abs(_constraint(spec, 2 * m1 - m0, 2 * w1 - w0) - (2 * R1 - R0))) <= 1e-12
    Z0, Z1 = spec.aggregate_kernel(w0), spec.aggregate_kernel(w1)
    assert np.max(np.abs(spec.aggregate_kernel(2 * w1 - w0) - (2 * Z1 - Z0))) <= 1e-12


def test_oracle_transport_matrix_matches_constraint():
    g = Grid(d=1, nx=8, nt=8, T=1.0)
    x = g.axis_coords()
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, m0=1.0 + 0.3 * np.sin(2 * np.pi * x))
    rng = np.random.default_rng(6)
    m = rng.standard_normal((g.nt, g.nx))
    w = rng.standard_normal((g.nt, 1, g.nx))
    C, b = transport_matrix(spec)
    R = (C @ np.concatenate([m.ravel(), w.ravel()]) - b).reshape(m.shape)
    assert np.max(np.abs(R - _constraint(spec, m, w))) <= 1e-12


# -- step bound -----------------------------------------------------------------


def _dense_operator_norm(spec, include_price):
    # columns of the constraint-plus-aggregation operator, orthonormal in the
    # ht hx^d (fields) and ht (price paths) weights
    g = spec.grid
    n_m = g.nt * g.n_space
    n = n_m + g.nt * g.d * g.n_space
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0 / np.sqrt(g.ht * g.cell_volume)
        m = e[:n_m].reshape(g.nt, *g.space_shape)
        w = e[n_m:].reshape(g.nt, g.d, *g.space_shape)
        col = [_constraint(spec, m, w, 0.0).ravel() * np.sqrt(g.ht * g.cell_volume)]
        if include_price:
            col.append(spec.aggregate_kernel(w).ravel() * np.sqrt(g.ht))
        cols.append(np.concatenate(col))
    return np.linalg.norm(np.array(cols).T, 2)


def _bound_specs():
    g1 = Grid(d=1, nx=8, nt=8, T=1.0)
    g2 = Grid(d=2, nx=6, nt=3, T=1.0)
    phi2 = np.random.default_rng(8).uniform(0.5, 1.5, (2, 2, 6, 6))
    g3 = Grid(d=1, nx=16, nt=4, T=1.0)
    phi3 = np.sin(2 * np.pi * g3.axis_coords()).reshape(1, 1, 16)
    return {
        "uniform-1d": ProblemSpec(grid=g1, q=2, r=2, s=2, m0=np.ones(8)),
        "2d-diffusion-k2": ProblemSpec(grid=g2, q=2, r=2, s=2, k=2, phi=phi2,
                                       A=np.array([[0.4, 0.1], [0.1, 0.2]]), m0=np.ones((6, 6))),
        "sin-kernel": ProblemSpec(grid=g3, q=2, r=2, s=1.25, phi=phi3, m0=np.ones(16)),
    }


@pytest.mark.parametrize("name", ["uniform-1d", "2d-diffusion-k2", "sin-kernel"])
@pytest.mark.parametrize("include_price", [True, False])
def test_operator_norm_bound(name, include_price):
    spec = _bound_specs()[name]
    dense = _dense_operator_norm(spec, include_price)
    bound = estimate_operator_norm(spec, include_price)
    # without price rows the bound equals the norm on these instances: allow SVD rounding
    assert dense <= bound * (1.0 + 1e-12)
    assert bound <= 1.002 * dense
    assert estimate_operator_norm(spec, include_price) == bound


# -- aggregation ----------------------------------------------------------------


def test_aggregate_flux_zero_and_unit(spec8):
    g = spec8.grid
    assert np.all(spec8.aggregate_kernel(np.zeros(g.vector_shape)) == 0.0)
    w = np.ones(g.vector_shape)
    z = spec8.aggregate_kernel(w)
    assert np.allclose(z, 1.0)  # unit-volume torus, phi = 1


def test_aggregate_flux_mean_zero_kernel():
    # s = 1.25 keeps 1/s + 1/(p r) >= 1, so a varying kernel is admissible
    g = Grid(d=1, nx=16, nt=4, T=1.0)
    x = g.axis_coords()
    phi = np.sin(2 * np.pi * x).reshape(1, 1, 16)
    spec = ProblemSpec(grid=g, q=2, r=2, s=1.25, phi=phi, m0=np.ones(16))
    from mfgcontrols.model import check_assumptions

    assert check_assumptions(spec).passed
    z = spec.aggregate_kernel(np.ones(g.vector_shape))
    assert np.max(np.abs(z)) <= 1e-12


# -- the saddle-point loop --------------------------------------------------------


def test_uniform_instance_converges():
    spec = uniform_instance(nx=16, nt=16)
    sol, log = solve_primal_dual(spec, SolverOptions(max_iter=20000, tol_gap=1e-8))
    assert log.converged
    g = spec.grid
    t = g.times()
    assert np.max(np.abs(sol.m - 1.0)) <= 1e-6
    assert np.max(np.abs(sol.w)) <= 1e-6
    assert np.max(np.abs(sol.P)) <= 1e-6
    assert np.max(np.abs(sol.u - (g.T - t)[:, None])) <= 1e-5
    assert np.max(np.abs(sol.gamma - 1.0)) <= 1e-6


def test_warm_start_is_fixed_point(uniform_solved, uniform_spec):
    sol, _ = uniform_solved
    sol2, log2 = solve_primal_dual(uniform_spec, SolverOptions(max_iter=50, tol_gap=1e-10), init=sol)
    assert log2.converged
    assert log2.iterations <= 10


def test_gap_envelope_monotone(uniform_spec):
    _, log = solve_primal_dual(uniform_spec, SolverOptions(max_iter=500, tol_gap=0.0))
    env = np.minimum.accumulate(np.abs(log.gap))
    assert np.all(np.diff(env) <= 0.0 + 1e-30)


def test_m_min_nonnegative_along_iterates(uniform_spec):
    _, log = solve_primal_dual(uniform_spec, SolverOptions(max_iter=300, tol_gap=0.0))
    assert log.m_min >= -1e-12


def test_loop_certificate_equals_functionals_of_solution(bump_spec, bump_solved):
    # the logged certificate is the shared functionals applied to the returned
    # Solution, sliced to interval fields, with nothing recomputed differently
    sol, log = bump_solved
    spec, nt = bump_spec, bump_spec.grid.nt
    u, P, m, w = sol.u[:nt], sol.P[:nt], sol.m[1:], sol.w[1:]
    _, _, fp_res, price_res = residuals(spec, m, w, P)
    assert log.B[-1] == eval_B(m, w, spec)
    assert log.D[-1] == eval_D(u, P, dual_gamma(spec, u, P), spec)
    assert log.fp_res[-1] == fp_res
    assert log.price_res[-1] == price_res


def test_step_size_violation():
    spec = uniform_instance(nx=8, nt=4)
    with pytest.raises(StepSizeViolation):
        solve_primal_dual(spec, SolverOptions(tau=1.0, sigma_step=1.0, max_iter=5))


def test_uniform_instance_2d():
    g = Grid(d=2, nx=8, nt=4, T=1.0)
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, m0=np.ones((8, 8)))
    sol, log = solve_primal_dual(spec, SolverOptions(max_iter=20000, tol_gap=1e-9))
    assert log.converged
    t = g.times()
    assert np.max(np.abs(sol.m - 1.0)) <= 1e-6
    assert np.max(np.abs(sol.u - (1.0 - t)[:, None, None])) <= 1e-5


def test_solver_with_two_price_components():
    g = Grid(d=1, nx=16, nt=8, T=1.0)
    x = g.axis_coords()
    phi = np.array([[1.0], [-0.5]])
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, phi=phi, k=2,
                       m0=1.0 + 0.3 * np.sin(2 * np.pi * x), uT=0.2 * np.cos(2 * np.pi * x))
    sol, log = solve_primal_dual(spec, SolverOptions(max_iter=30000, tol_gap=1e-7))
    assert log.converged
    assert sol.P.shape == (g.nt + 1, 2)
    # the second kernel row is -1/2 of the first, so P tracks that ratio
    z = spec.aggregate_kernel(sol.w)
    assert np.allclose(z[:, 1], -0.5 * z[:, 0], atol=1e-12)


def test_weak_duality_feasible_pairs(uniform_spec):
    # D evaluated at any duals with a finalized gamma dominates -B of any
    # transport-feasible pair
    spec = uniform_spec
    g = spec.grid
    rng = np.random.default_rng(3)
    m = np.broadcast_to(spec.m0, g.scalar_shape).copy()
    w = np.zeros(g.vector_shape)
    B = eval_B(m[1:], w[1:], spec)
    for _ in range(5):
        u = rng.standard_normal(g.scalar_shape)
        P = rng.standard_normal((g.nt + 1, 1))
        m_other = np.abs(rng.standard_normal(g.scalar_shape)) + 0.1
        gamma = spec.coupling_f(m_other)
        assert B + eval_D(u[: g.nt], P[: g.nt], gamma[1:], spec) >= -1e-8


@pytest.mark.parametrize("bad", [{"step_ratio": 0.0}, {"tau": -0.1, "sigma_step": 0.1},
                                 {"tol_gap": -1e-6}, {"tol_gap": float("nan")}, {"max_iter": 0}])
def test_solver_options_validation(bad):
    with pytest.raises(InvalidOption):
        SolverOptions(**bad)
