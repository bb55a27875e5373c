import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgcontrols import varsolve
from mfgcontrols.errors import Diverged, InvalidOption
from mfgcontrols.grid import Grid, div_values, grad_values
from mfgcontrols.instances import bump_instance, uniform_instance
from mfgcontrols.model import ProblemSpec, classify_exponents
from mfgcontrols.picard import PicardOptions, picard_iterate
from mfgcontrols.varsolve import (
    OMEGA,
    SolverOptions,
    _adjoint_m,
    _constraint,
    _transport_step,
    dual_gamma,
    eval_B,
    eval_D,
    residuals,
    solve_primal_dual,
)
from mfgcontrols.verify import weak_solution_report
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
    assert eval_B(m[1:], w[1:], spec8.aggregate_kernel(w[1:]), spec8) == pytest.approx(0.5)  # T/2 with theta = 1, q = 2


def test_eval_B_perspective_violation_is_inf(spec8):
    _, m, w, _, _ = exact_uniform_fields(spec8)
    m[2, 3] = 0.0
    w[2, 0, 3] = 0.5
    assert eval_B(m[1:], w[1:], spec8.aggregate_kernel(w[1:]), spec8) == np.inf
    m[1, 1] = -1e-3
    assert eval_B(m[1:], w[1:], spec8.aggregate_kernel(w[1:]), spec8) == np.inf


def test_eval_B_terminal_cost():
    g = Grid(d=1, nx=8, nt=4, T=1.0)
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, m0=np.ones(8), uT=3.0)
    m = np.ones(g.scalar_shape)
    w = np.zeros(g.vector_shape)
    assert eval_B(m[1:], w[1:], spec.aggregate_kernel(w[1:]), spec) == pytest.approx(0.5 + 3.0)


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
    assert abs(eval_B(m[1:], w[1:], spec8.aggregate_kernel(w[1:]), spec8) + eval_D(u[:nt], P[:nt], gamma[1:], spec8)) <= 1e-14


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
    # <_constraint(m, w, 0), U> = <_adjoint_m(U), m> - <grad U, w> on interval variables
    g = spec.grid
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((g.nt, *g.space_shape))
    w = rng.standard_normal((g.nt, g.d, *g.space_shape))
    U = rng.standard_normal((g.nt, *g.space_shape))
    lhs = float(np.sum(_constraint(spec, m, w, 0.0) * U))
    rhs = float(np.sum(_adjoint_m(spec, U) * m) + np.sum(-grad_values(spec.grid, U) * w))
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


# -- the preconditioned transport step ----------------------------------------------


def _dense_columns(fn, n_in, shape):
    """Matrix of a linear map from its images of the unit vectors."""
    cols = []
    for j in range(n_in):
        e = np.zeros(n_in)
        e[j] = 1.0
        cols.append(np.ravel(fn(e.reshape(shape))))
    return np.array(cols).T


@st.composite
def transport_cases(draw):
    """A random small spec (d, k, PSD A, per-node phi) and a random multiplier field."""
    d = draw(st.sampled_from([1, 2]))
    k = draw(st.sampled_from([1, 2]))
    g = Grid(d=d, nx=draw(st.integers(4, 7 if d == 1 else 5)), nt=draw(st.integers(2, 5)), T=1.0)
    zero_A = draw(st.booleans())
    Bm = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=d * d, max_size=d * d))).reshape(d, d)
    A = np.zeros((d, d)) if zero_A else Bm @ Bm.T
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = rng.uniform(-1.5, 1.5, (k, d, *g.space_shape))
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, k=k, phi=phi, A=A, m0=np.ones(g.space_shape))
    return spec, rng.standard_normal((g.nt, *g.space_shape))


def _dense_K(spec):
    """Linear part of the constraint on the stacked (m, w) interval fields."""
    g = spec.grid
    n_m, n_w = g.nt * g.n_space, g.nt * g.d * g.n_space
    return _dense_columns(
        lambda x: _constraint(spec, x[:n_m].reshape(g.nt, *g.space_shape),
                              x[n_m:].reshape(g.nt, g.d, *g.space_shape), 0.0),
        n_m + n_w, (n_m + n_w,))


@settings(max_examples=40, deadline=None)
@given(transport_cases())
def test_transport_step_inverts_kkt(case):
    # the step solves K K^T exactly (at A = 0 and through the rank-one
    # correction at A != 0), so step(K K^T v) = v
    spec, v = case
    step = _transport_step(spec, 1.0)
    kkt_v = _constraint(spec, _adjoint_m(spec, v), -grad_values(spec.grid, v), 0.0)
    assert np.max(np.abs(step(kkt_v) - v)) <= 1e-12 * np.max(np.abs(v))


@settings(max_examples=40, deadline=None)
@given(transport_cases())
def test_transport_metric_dominates_kkt(case):
    # <y, M y> >= <y, K K^T y> against the dense K, with M y = v for y = M^-1 v
    spec, v = case
    y = _transport_step(spec, 1.0)(v)
    K = _dense_K(spec)
    Kty = K.T @ y.ravel()
    assert Kty @ Kty <= float(np.sum(y * v)) * (1.0 + 1e-12)


def _preconditioned_norm2(spec):
    """||Sigma^1/2 [K; G] T^1/2||^2 of the loop's steps, from dense matrices.

    T = tau, Sigma = (omega/tau) (K K^T)^-1 on the transport rows and sigma_P
    on the price rows; fields carry the ht hx^d weight and price paths ht,
    so G's adjoint is G^T / hx^d.
    """
    g = spec.grid
    _, log = solve_primal_dual(spec, SolverOptions(max_iter=1, tol_gap=0.0))
    tau, sigma = log.steps["tau"], log.steps["sigma_price"]
    K = _dense_K(spec)
    n_u = K.shape[0]
    S = _dense_columns(_transport_step(spec, OMEGA / tau), n_u, (g.nt, *g.space_shape))
    op = K.T @ S @ K
    n_m = g.nt * g.n_space
    G = _dense_columns(spec.aggregate_kernel, g.d * g.n_space, (g.d, *g.space_shape))
    op[n_m:, n_m:] += sigma * np.kron(np.eye(g.nt), G.T @ G) / g.cell_volume
    return tau * np.linalg.eigvalsh(0.5 * (op + op.T))[-1]


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
@pytest.mark.parametrize("with_kernel", [True, False])
def test_operator_norm_bound(name, with_kernel):
    # the preconditioned operator meets Pock-Chambolle's condition: the
    # transport block contributes exactly omega, the price rows at most
    # 0.99 - omega, and nothing in the phi = 0 copy (no aggregation rows)
    spec = _bound_specs()[name]
    if not with_kernel:
        spec = dataclasses.replace(spec, phi=0.0)
    norm2 = _preconditioned_norm2(spec)
    assert norm2 >= OMEGA * (1.0 - 1e-9)
    assert norm2 <= (0.99 if with_kernel else OMEGA) * (1.0 + 1e-9)


@settings(max_examples=20, deadline=None)
@given(transport_cases())
def test_preconditioned_norm_below_one(case):
    spec, _ = case
    assert _preconditioned_norm2(spec) <= 0.99 * (1.0 + 1e-9)


def test_price_free_matches_zero_kernel_bit_for_bit():
    # kappa_phi = 0 pins P to zero, so the aggregation rows act on nothing:
    # the same game with phi = 0 (no rows at all) runs the same iterates
    spec = bump_instance(nx=32, nt=32, kappa_phi=0.0)
    opts = SolverOptions(max_iter=2000, tol_gap=1e-8)
    sol_a, log_a = solve_primal_dual(spec, opts)
    sol_b, log_b = solve_primal_dual(dataclasses.replace(spec, phi=0.0), opts)
    assert log_a.converged and log_a.iterations == log_b.iterations
    for name in ("u", "m", "w", "P", "gamma"):
        assert np.array_equal(getattr(sol_a, name), getattr(sol_b, name)), name
    assert log_a.columns() == log_b.columns()


def test_iterations_mesh_independent():
    # plain PDHG doubled its iterations per refinement (488 -> 2,191 from n = 16 to 64)
    iters = []
    for n in (16, 32, 64):
        _, log = solve_primal_dual(bump_instance(nx=n, nt=n), SolverOptions(max_iter=2000, tol_gap=1e-3))
        assert log.converged
        iters.append(log.iterations)
    assert max(iters) <= 1.25 * min(iters), iters
    assert max(iters) <= 40, iters  # 51 at n = 64 without over-relaxation, 72 with the step bound split evenly


def test_tight_gap_bump_iteration_budget(bump_solved):
    # the 64 x 64 bump at gap 1e-6: 176 iterations without over-relaxation
    _, log = bump_solved
    assert log.iterations <= 150, log.iterations


def test_2d_two_price_components_iteration_budget():
    # 8^2 x 8 with A != 0 and a per-node two-row kernel: 147 iterations without over-relaxation
    g = Grid(d=2, nx=8, nt=8, T=1.0)
    X, Y = g.meshgrid()
    phi = np.random.default_rng(8).uniform(0.5, 1.5, (2, 2, 8, 8))
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, k=2, phi=phi, A=np.array([[0.4, 0.1], [0.1, 0.2]]), c=0.5,
                       m0=1.0 + 0.5 * np.cos(2 * np.pi * X), uT=np.sin(2 * np.pi * Y))
    _, log = solve_primal_dual(spec, SolverOptions(max_iter=2000, tol_gap=1e-6))
    assert log.converged
    assert log.iterations <= 110, log.iterations


def test_vacuum_bump_iteration_budget():
    # c = 1 empties part of the torus; 117 iterations with the step bound split evenly
    spec = bump_instance(nx=32, nt=32, motion_cost=1.0)
    sol, log = solve_primal_dual(spec, SolverOptions(max_iter=2000, tol_gap=1e-3))
    assert log.converged
    assert log.iterations <= 85, log.iterations
    # a relaxed density goes negative wherever the prox empties a cell
    # (m + rho (0 - m) < 0 for rho > 1); the returned fields are the prox
    # outputs, so they keep m >= 0 and the apex convention w = 0 on {m = 0}
    assert log.m_min >= 0.0
    vacuum = sol.m == 0.0
    assert np.min(sol.m) >= 0.0 and vacuum.any()
    assert np.all(sol.w.swapaxes(0, 1)[:, vacuum] == 0.0)


@pytest.mark.parametrize("motion_cost,parent_iterations", [(1.0, 4972), (0.1, 5504)])
def test_vacuum_bump_converges(motion_cost, parent_iterations):
    # cheap control empties part of the torus (m = 0 on some nodes); there a
    # fixed primal step can leave fp_res hovering near 1e-6 for 20,000
    # iterations, so the default must still reach gap 1e-6 within the
    # iterations plain PDHG took
    spec = bump_instance(nx=32, nt=32, motion_cost=motion_cost)
    sol, log = solve_primal_dual(spec, SolverOptions(max_iter=parent_iterations, tol_gap=1e-6))
    assert log.converged, (log.gap[-1], log.fp_res[-1])
    assert np.min(sol.m) == 0.0


@pytest.mark.parametrize("q,r,s,label", [(3.0, 3.0, 2.0, "1B"), (3.0, 1.5, 2.0, "2B"), (2.0, 3.0, 3.0, "1B")],
                         ids=["q3-r3-s2", "q3-r1.5-s2", "q2-r3-s3"])
def test_non_quadratic_cell_end_to_end(q, r, s, label):
    spec = dataclasses.replace(bump_instance(nx=32, nt=32), q=q, r=r, s=s)
    assert classify_exponents(spec).case_label == label
    sol, log = solve_primal_dual(spec, SolverOptions(max_iter=500, tol_gap=1e-3))
    assert log.converged
    assert weak_solution_report(sol, spec, tol=5e-3)[1]
    # criterion 4's agreement: the two solvers' discretizations differ at first
    # order in h (1.5e-2 in L1(m) on the 32x32 bump even at q = r = 2, halving
    # with each refinement), so it is checked where that difference is below 1e-2
    spec = dataclasses.replace(bump_instance(nx=128, nt=128), q=q, r=r, s=s)
    sol, log = solve_primal_dual(spec, SolverOptions(max_iter=500, tol_gap=1e-3))
    pic = picard_iterate(spec, PicardOptions(damping=0.3, max_outer=900, tol_fixed_point=1e-6))
    assert log.converged and pic.converged
    g = spec.grid
    assert np.sum(np.abs(sol.m - pic.solution.m)) * g.ht * g.cell_volume <= 1e-2
    assert np.sum(np.abs(sol.P - pic.solution.P)) * g.ht <= 1e-2


def test_non_finite_certificate_raises_diverged(monkeypatch):
    spec = uniform_instance(nx=8, nt=4)

    def nan_prox(mbar, wbar, *args):
        return np.full_like(mbar, np.nan), np.full_like(wbar, np.nan)

    monkeypatch.setattr(varsolve, "prox_kinetic_congestion", nan_prox)
    with pytest.raises(Diverged):
        solve_primal_dual(spec, SolverOptions(max_iter=5))


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
    _, Z, fp_res, price_res = residuals(spec, m, w, P)
    xi = grad_values(spec.grid, u) + spec.phi_transpose_price(P)
    assert log.B[-1] == eval_B(m, w, Z, spec)
    assert log.D[-1] == eval_D(u, P, dual_gamma(spec, u, xi), spec)
    assert log.fp_res[-1] == fp_res
    assert log.price_res[-1] == price_res


@pytest.mark.parametrize("tol", [1e-3, 1e-6])
def test_converged_solution_certifies_its_own_gap(tol):
    # the returned Solution carries gamma = f(m): the verifier's duality gap
    # with it meets the stop tolerance, not only the loop's gap with the
    # dual-feasible gamma (which a shift of u moves only to second order)
    spec = uniform_instance()
    sol, log = solve_primal_dual(spec, SolverOptions(max_iter=20000, tol_gap=tol))
    rep, _ = weak_solution_report(sol, spec, tol=tol)
    assert log.converged
    assert abs(rep.duality_gap) <= tol * (1.0 + abs(log.B[-1]))


@pytest.mark.parametrize("n", [16, 32])
def test_converged_means_true_verdict(n):
    # the loop stops on the verifier's verdict, so a converged bump certifies at its own tolerance
    spec = bump_instance(nx=n, nt=n)
    sol, log = solve_primal_dual(spec, SolverOptions(tol_gap=1e-3))
    assert log.converged
    assert weak_solution_report(sol, spec, 1e-3)[1]


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
    B = eval_B(m[1:], w[1:], spec.aggregate_kernel(w[1:]), spec)
    for _ in range(5):
        u = rng.standard_normal(g.scalar_shape)
        P = rng.standard_normal((g.nt + 1, 1))
        m_other = np.abs(rng.standard_normal(g.scalar_shape)) + 0.1
        gamma = spec.coupling_f(m_other)
        assert B + eval_D(u[: g.nt], P[: g.nt], gamma[1:], spec) >= -1e-8


@pytest.mark.parametrize("bad", [{"tol_gap": float("-inf")}, {"max_iter": -3},
                                 {"tol_gap": -1e-6}, {"tol_gap": float("nan")}, {"max_iter": 0}])
def test_solver_options_validation(bad):
    with pytest.raises(InvalidOption):
        SolverOptions(**bad)
