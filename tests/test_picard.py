import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgcontrols import picard
from mfgcontrols.errors import CFLViolation, InvalidOption, NegativeDensity
from mfgcontrols.grid import Grid
from mfgcontrols.instances import bump_instance, uniform_instance
from mfgcontrols.model import ProblemSpec, check_assumptions
from mfgcontrols.picard import (
    PicardOptions,
    feedback,
    picard_iterate,
    solve_fp,
    solve_hjb,
    update_price,
)


def test_hjb_uniform_is_linear_in_time():
    spec = uniform_instance(nx=16, nt=8)
    g = spec.grid
    m = np.ones(g.scalar_shape)
    P = np.zeros((g.nt + 1, 1))
    u = solve_hjb(m, P, spec)
    t = g.times()
    assert np.max(np.abs(u - (g.T - t)[:, None])) <= 1e-13


def test_hjb_constants_with_zero_coupling():
    g = Grid(d=1, nx=16, nt=8, T=1.0)
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, theta=1e-300, m0=np.ones(16), uT=5.0)
    m = np.zeros(g.scalar_shape)
    u = solve_hjb(m, np.zeros((g.nt + 1, 1)), spec)
    assert np.max(np.abs(u - 5.0)) <= 1e-12


def test_hjb_monotone_in_terminal_cost():
    g = Grid(d=1, nx=16, nt=8, T=0.5)
    rng = np.random.default_rng(0)
    x = g.axis_coords()
    for trial in range(4):
        uT1 = 0.3 * np.sin(2 * np.pi * x + rng.uniform(0, 6))
        bumpc = rng.uniform(0.1, 0.5) * (1 + np.cos(2 * np.pi * (x - rng.uniform())))
        spec1 = ProblemSpec(grid=g, q=2, r=2, s=2, m0=np.ones(16), uT=uT1)
        spec2 = ProblemSpec(grid=g, q=2, r=2, s=2, m0=np.ones(16), uT=uT1 + bumpc)
        m = np.abs(1 + 0.3 * rng.standard_normal(g.scalar_shape))
        P = 0.2 * rng.standard_normal((g.nt + 1, 1))
        u1 = solve_hjb(m, P, spec1)
        u2 = solve_hjb(m, P, spec2)
        assert np.min(u2 - u1) >= -1e-12


def test_fp_rest_state():
    spec = uniform_instance(nx=16, nt=8)
    g = spec.grid
    m = solve_fp(np.zeros(g.vector_shape), spec)
    assert np.max(np.abs(m - spec.m0)) == 0.0


def test_fp_exact_translation_at_unit_cfl(monkeypatch):
    # ht = hx and v = 1: at CFL number 1 the sweep takes one substep per
    # interval, and the upwind step is an exact one-node shift
    monkeypatch.setattr(picard, "CFL_SAFETY", 1.0)
    g = Grid(d=1, nx=16, nt=8, T=0.5)
    m0 = np.zeros(16)
    m0[3] = 16.0
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, m0=m0)
    v = np.ones(g.vector_shape)
    m = solve_fp(v, spec)
    for n in range(g.nt + 1):
        assert np.allclose(m[n], np.roll(spec.m0, n))


def test_fp_mass_and_positivity():
    g = Grid(d=1, nx=32, nt=16, T=1.0)
    rng = np.random.default_rng(1)
    m0 = np.abs(1 + 0.5 * rng.standard_normal(32))
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, m0=m0)
    v = 0.8 * np.sin(2 * np.pi * g.axis_coords() + rng.uniform())[None, None, :] * np.ones(g.vector_shape)
    m = solve_fp(v, spec)
    masses = m.sum(axis=1) * g.cell_volume
    assert np.max(np.abs(masses - 1.0)) <= 1e-12
    assert np.min(m) >= 0.0


@st.composite
def fp_cases(draw):
    """A 1-D or 2-D spec with a nonnegative m0 (zeros included) and a diagonally
    dominant A, and a random drift field.  In 2-D |A_12| is near min A_ii, and a
    zero node z whose other neighbours are all zero lies diagonally next to mass
    at z + (1, -sign A_12), where a centred cross difference puts its negative weight."""
    d = draw(st.sampled_from([1, 2]))
    g = Grid(d=d, nx=draw(st.integers(4, 16 if d == 1 else 8)), nt=draw(st.integers(2, 6)),
             T=draw(st.floats(0.05, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m0 = rng.uniform(0.0, 2.0, g.space_shape) * (rng.uniform(size=g.space_shape) < 0.6)
    m0[(0,) * d] += 1.0  # positive mass, normalized to 1 by the spec
    diag = [draw(st.floats(0.0, 0.02)) for _ in range(d)]
    A = np.diag(diag)
    if d == 2:
        sign = draw(st.sampled_from([1, -1]))
        A[0, 1] = A[1, 0] = sign * draw(st.floats(0.5, 1.0)) * min(diag)
        z = rng.integers(g.nx, size=2)
        m0[np.ix_((z[0] + np.arange(-1, 2)) % g.nx, (z[1] + np.arange(-1, 2)) % g.nx)] = 0.0
        m0[(z[0] + 1) % g.nx, (z[1] - sign) % g.nx] = 1.0 + rng.uniform()
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, A=A, m0=m0)
    drift = draw(st.floats(0.0, 3.0)) * rng.uniform(-1.0, 1.0, g.vector_shape)
    return spec, drift


@settings(max_examples=60, deadline=None)
@given(fp_cases())
def test_fp_keeps_mass_and_sign(case):
    # automatic substeps: the flux form conserves mass, and the upwind sweep with
    # the diffusion stencil keeps m >= 0 under the CFL bound; every drawn A is
    # diagonally dominant (|A_12| <= min A_ii), so every stencil weight is >= 0
    spec, v = case
    g = spec.grid
    m = solve_fp(v, spec)
    masses = m.reshape(g.nt + 1, -1).sum(axis=1) * g.cell_volume
    assert np.max(np.abs(masses - 1.0)) <= 1e-13
    assert np.min(m) >= 0.0


@pytest.mark.parametrize("A", [[[0.05, 0.04], [0.04, 0.05]], [[0.01, 0.01], [0.01, 0.01]]])
def test_fp_keeps_box_density_nonnegative_with_cross_diffusion(A):
    # pure diffusion of a box density with A_12 != 0: the centred cross difference
    # drove min m to -0.09 and -0.50 here; the monotone split keeps m >= 0 and the mass
    g = Grid(d=2, nx=16, nt=8, T=1.0)
    X, Y = g.meshgrid()
    box = (np.abs(X - 0.5) <= 0.15) & (np.abs(Y - 0.5) <= 0.15)
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, A=np.array(A), m0=box.astype(float))
    m = solve_fp(np.zeros(g.vector_shape), spec)
    assert np.min(m) >= 0.0
    masses = m.reshape(g.nt + 1, -1).sum(axis=1) * g.cell_volume
    assert np.max(np.abs(masses - 1.0)) <= 1e-13


def test_feedback_zero_gradient():
    spec = uniform_instance(nx=16, nt=8)
    g = spec.grid
    u = np.ones(g.scalar_shape)
    v = feedback(u, np.zeros((g.nt + 1, 1)), spec)
    assert np.all(v == 0.0)


def test_feedback_linear_quadratic_case():
    g = Grid(d=1, nx=16, nt=4, T=1.0)
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, m0=np.ones(16))
    # u with slope 1 in x: one-sided selections give xi = 1, v = -1
    u = np.tile(g.axis_coords(), (g.nt + 1, 1))
    v = feedback(u, np.zeros((g.nt + 1, 1)), spec)
    interior = v[:, 0, 1:-1]
    assert np.allclose(interior, -1.0)


def test_update_price_zero_velocity():
    spec = uniform_instance(nx=16, nt=8)
    g = spec.grid
    P = update_price(np.ones(g.scalar_shape), np.zeros(g.vector_shape), spec)
    assert np.all(P == 0.0)


def test_update_price_identity_map():
    spec = uniform_instance(nx=16, nt=8)
    g = spec.grid
    v = np.full(g.vector_shape, 0.37)
    P = update_price(np.ones(g.scalar_shape), v, spec)
    assert np.allclose(P, 0.37)  # s = 2, kappa = 1, phi = 1: Psi = identity


def test_picard_uniform_fixed_point():
    spec = uniform_instance(nx=16, nt=8)
    result = picard_iterate(spec, PicardOptions(damping=1.0, tol_fixed_point=1e-12))
    assert result.converged
    assert result.iterations <= 3
    g = spec.grid
    t = g.times()
    assert np.max(np.abs(result.solution.u - (g.T - t)[:, None])) <= 1e-12
    assert np.max(np.abs(result.solution.m - 1.0)) <= 1e-12
    assert np.max(np.abs(result.solution.P)) <= 1e-12
    assert np.max(np.abs(result.solution.w)) <= 1e-12


def test_picard_infinite_tolerance_one_sweep():
    spec = uniform_instance(nx=16, nt=8)
    result = picard_iterate(spec, PicardOptions(tol_fixed_point=np.inf, max_outer=50))
    assert result.iterations == 1
    assert np.all(np.isfinite(result.solution.m))
    assert np.all(np.isfinite(result.solution.u))


def test_picard_zero_differences_run_to_max_outer():
    # the flat fixed point is exact: every residual and every Anderson
    # difference is zero, and tol 0 is never met, so all five sweeps run on
    # an all-zero history
    spec = uniform_instance(nx=16, nt=8)
    result = picard_iterate(spec, PicardOptions(damping=1.0, tol_fixed_point=0.0, max_outer=5))
    assert result.iterations == 5
    assert not result.converged
    assert result.residuals == [0.0] * 5
    sol = result.solution
    for field in (sol.u, sol.m, sol.w, sol.P, sol.gamma):
        assert np.all(np.isfinite(field))
    assert np.max(np.abs(sol.m - 1.0)) <= 1e-12


def _synthetic_map(monkeypatch, spec, density_map):
    """Replace the four stages by m -> density_map(m, sweep) at zero price.

    Returns the list that records every iterate m the loop evaluates.
    """
    g = spec.grid
    iterates = []

    def fake_hjb(m, P, spec):
        iterates.append(m.copy())
        return np.zeros(g.scalar_shape)

    monkeypatch.setattr(picard, "solve_hjb", fake_hjb)
    monkeypatch.setattr(picard, "feedback", lambda u, P, spec: np.zeros(g.vector_shape))
    monkeypatch.setattr(picard, "solve_fp", lambda v, spec: density_map(iterates[-1], len(iterates)))
    monkeypatch.setattr(picard, "update_price", lambda m, v, spec: np.zeros((g.nt + 1, 1)))
    return iterates


def test_negative_anderson_candidate_falls_back_to_damped_step(monkeypatch):
    # A synthetic expanding map m -> 2m - m_star: the damped iterates move
    # away from m_star and stay positive, while one Anderson step lands on
    # m_star exactly, whose negative column must be refused every time
    spec = uniform_instance(nx=8, nt=4)
    m_star = np.ones(spec.grid.scalar_shape)
    m_star[:, 3] = -0.5
    iterates = _synthetic_map(monkeypatch, spec, lambda m, sweep: 2.0 * m - m_star)
    beta = 0.5
    result = picard_iterate(spec, PicardOptions(damping=beta, max_outer=6))
    assert not result.converged
    assert len(iterates) == 7
    for prev, nxt in zip(iterates, iterates[1:]):
        assert np.min(nxt) >= 0.0
        damped = prev + beta * ((2.0 * prev - m_star) - prev)
        assert np.max(np.abs(nxt - damped)) <= 1e-12


def test_repeated_residual_differences_run_to_max_outer(monkeypatch):
    # A synthetic map whose residual grows by the same field every sweep:
    # every row of dF is that field, so the Gram matrix is singular but
    # not zero, and the Anderson solve must still give finite iterates
    spec = uniform_instance(nx=8, nt=4)
    g = spec.grid
    step = 0.01 * np.cos(2 * np.pi * g.axis_coords()) * np.ones(g.scalar_shape)
    iterates = _synthetic_map(monkeypatch, spec, lambda m, sweep: m + sweep * step)
    result = picard_iterate(spec, PicardOptions(damping=0.5, tol_fixed_point=0.0, max_outer=12))
    assert result.iterations == 12
    assert not result.converged
    assert len(iterates) == 13
    assert np.all(np.isfinite(result.residuals))
    for m in iterates:
        assert np.all(np.isfinite(m))


def test_exact_fixed_point_keeps_zero_difference_rows(monkeypatch):
    # The constant map m -> m_star is met exactly by the first undamped step
    # (1 + 0.5 and 1.5 - 1 are exact), so from the third sweep on each new
    # row of dF is zero beside a nonzero first row; tol 0 keeps the loop going
    spec = uniform_instance(nx=8, nt=4)
    m_star = np.ones(spec.grid.scalar_shape)
    m_star[:, 3] = 1.5
    iterates = _synthetic_map(monkeypatch, spec, lambda m, sweep: m_star)
    result = picard_iterate(spec, PicardOptions(damping=1.0, tol_fixed_point=0.0, max_outer=5))
    assert result.iterations == 5
    assert result.residuals[1:] == [0.0] * 4
    for m in iterates[1:]:
        assert np.array_equal(m, m_star)


def _record_densities(monkeypatch):
    """Wrap the value sweep so that it records every iterate m; returns the list."""
    densities = []
    real_hjb = picard.solve_hjb

    def recording_hjb(m, P, spec):
        densities.append(m.copy())
        return real_hjb(m, P, spec)

    monkeypatch.setattr(picard, "solve_hjb", recording_hjb)
    return densities


def test_anderson_iterates_stay_admissible_on_bump(monkeypatch):
    spec = bump_instance(nx=32, nt=32)
    g = spec.grid
    densities = _record_densities(monkeypatch)
    result = picard_iterate(spec, PicardOptions(damping=0.05, max_outer=2000, tol_fixed_point=1e-10))
    assert result.converged
    assert result.iterations <= 150
    assert len(densities) == result.iterations
    for m in densities:
        assert np.min(m) >= 0.0
        assert np.max(np.abs(m.sum(axis=1) * g.cell_volume - 1.0)) <= 1e-12


def test_returned_iterate_is_the_tested_one():
    # one more sweep from the returned (m, P) reproduces the last residual, below the tolerance
    spec = bump_instance(nx=32, nt=32)
    opts = PicardOptions(damping=0.05, max_outer=2000, tol_fixed_point=1e-10)
    result = picard_iterate(spec, opts)
    assert result.converged
    m, P = result.solution.m, result.solution.P
    u = solve_hjb(m, P, spec)
    assert np.array_equal(u, result.solution.u)
    v = feedback(u, P, spec)
    m_new = solve_fp(v, spec)
    res = float(np.abs(m_new - m).max()) + float(np.abs(update_price(m_new, v, spec) - P).max())
    assert res == result.residuals[-1]
    assert res < opts.tol_fixed_point


def test_bump_sweep_budget(monkeypatch):
    # the settings of criterion 4 and the Picard benchmark on the 64 x 64 bump
    densities = _record_densities(monkeypatch)
    result = picard_iterate(bump_instance(), PicardOptions(damping=0.05, max_outer=900, tol_fixed_point=1e-10))
    assert result.converged
    assert result.iterations <= 78
    for m in densities:
        assert np.min(m) >= 0.0


def test_readme_quickstart_picard_converges():
    # the call the README quick-start makes, with the default budget and tolerance
    alt = picard_iterate(bump_instance(), PicardOptions(damping=0.05))
    assert alt.converged


def test_hjb_rejects_negative_density():
    spec = uniform_instance(nx=16, nt=8)
    g = spec.grid
    m = np.ones(g.scalar_shape)
    m[2, 5] = -1e-6
    with pytest.raises(NegativeDensity):
        solve_hjb(m, np.zeros((g.nt + 1, 1)), spec)


def test_picard_uniform_2d():
    g = Grid(d=2, nx=8, nt=4, T=1.0)
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, m0=np.ones((8, 8)))
    result = picard_iterate(spec, PicardOptions(damping=1.0, tol_fixed_point=1e-12))
    assert result.converged
    t = g.times()
    assert np.max(np.abs(result.solution.u - (g.T - t)[:, None, None])) <= 1e-12
    assert np.max(np.abs(result.solution.m - 1.0)) <= 1e-12


def test_picard_uniform_with_diffusion():
    # constants solve the diffusive system too; the sweep must keep them exact
    g = Grid(d=1, nx=16, nt=8, T=1.0)
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, A=np.array([[0.05]]), m0=np.ones(16))
    result = picard_iterate(spec, PicardOptions(damping=1.0, tol_fixed_point=1e-12))
    assert result.converged
    t = g.times()
    assert np.max(np.abs(result.solution.u - (g.T - t)[:, None])) <= 1e-12
    assert np.max(np.abs(result.solution.m - 1.0)) <= 1e-12


def test_cfl_violation_forced_substeps():
    # a terminal cost this steep needs far more than MAX_SUBSTEPS per interval
    g = Grid(d=1, nx=16, nt=4, T=1.0)
    x = g.axis_coords()
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, m0=np.ones(16), uT=1e9 * np.cos(2 * np.pi * x))
    m = np.ones(g.scalar_shape)
    P = np.zeros((g.nt + 1, 1))
    with pytest.raises(CFLViolation) as err:
        solve_hjb(m, P, spec)
    assert err.value.admissible_ht is not None
    assert err.value.admissible_ht < g.ht / picard.MAX_SUBSTEPS


def test_cfl_violation_substep_cap():
    # drift 1e4 on hx = 1/16, ht = 1/4: 80,000 substeps would be needed
    g = Grid(d=1, nx=16, nt=4, T=1.0)
    x = g.axis_coords()
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, m0=np.ones(16), uT=np.cos(2 * np.pi * x))
    v = np.full(g.vector_shape, 1e4)
    with pytest.raises(CFLViolation) as err:
        solve_fp(v, spec)
    # the refusal names the admissible grid interval, not the admissible substep
    admissible = picard.MAX_SUBSTEPS * picard.CFL_SAFETY / (1e4 * g.nx)  # 0.0128
    assert err.value.admissible_ht == pytest.approx(admissible, rel=1e-12)
    assert f"needs ht <= {admissible:.3e}" in str(err.value)
    # and an interval that short runs: ht = 1/80 = 0.0125 takes 4,000 substeps
    g = Grid(d=1, nx=16, nt=80, T=1.0)
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, m0=np.ones(16), uT=np.cos(2 * np.pi * x))
    m = solve_fp(np.full(g.vector_shape, 1e4), spec)
    assert g.ht <= admissible and np.all(np.isfinite(m))


def test_non_finite_cfl_rate_refuses_with_a_finite_admissible_ht():
    # c = 1e305: the value sweep's rate coefficient d c / hx^r overflows to inf (and kappa =
    # inf / inf was NaN, which passed the CFL test and gave NaN fields); a NaN drift likewise
    # has a NaN transport rate.  check_assumptions refuses such a c, but a direct caller of
    # the sweeps bypasses it, so each sweep still refuses its interval, with admissible ht 0
    # and no "nan" in the message
    g = Grid(d=1, nx=64, nt=8, T=1.0)
    x = g.axis_coords()
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, c=1e305, m0=1.0 + 0.5 * np.cos(2 * np.pi * x),
                       uT=np.cos(2 * np.pi * x))
    assert [name for name, _ in check_assumptions(spec).failures] == ["H2_hamiltonian"]
    m = np.broadcast_to(spec.m0, g.scalar_shape).copy()
    runs = [("value", lambda: solve_hjb(m, np.zeros((g.nt + 1, 1)), spec)),
            ("value", lambda: picard_iterate(spec)),
            ("transport", lambda: solve_fp(np.full(g.vector_shape, np.nan), spec))]
    for sweep, run in runs:
        with pytest.raises(CFLViolation) as err:
            run()
        assert err.value.admissible_ht == 0.0
        assert f"explicit {sweep} sweep" in str(err.value) and "nan" not in str(err.value)


def test_cfl_auto_subcycling_succeeds():
    g = Grid(d=1, nx=16, nt=4, T=1.0)
    x = g.axis_coords()
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, m0=np.ones(16), uT=np.cos(2 * np.pi * x))
    u = solve_hjb(np.ones(g.scalar_shape), np.zeros((g.nt + 1, 1)), spec)
    assert np.all(np.isfinite(u))


# -- per-slice, np.roll-based reference formulas ------------------------------
# The sweeps above act on whole time paths and slicing stencils; these are
# the one-slice-at-a-time formulas they replace, kept as the reference the
# vectorised code must reproduce.


def _ref_split(A):
    """{e: rho_e} with A = sum rho_e e e^T: on e1, e2 and e1 +- e2 when A is diagonally
    dominant (all rho_e >= 0), else the centred cross difference, +-a12/2 on e1 +- e2."""
    if len(A) == 1:
        return {(1,): A[0, 0]}
    a = A[0, 1]
    if min(A[0, 0], A[1, 1]) >= abs(a):
        return {(1, 0): A[0, 0] - abs(a), (0, 1): A[1, 1] - abs(a), (1, 1 if a > 0 else -1): abs(a)}
    return {(1, 0): A[0, 0], (0, 1): A[1, 1], (1, 1): a / 2, (1, -1): -a / 2}


def _ref_diffusion(g, A, u):
    axes = tuple(range(u.ndim - g.d, u.ndim))
    out = np.zeros_like(u)
    for e, rho in _ref_split(A).items():
        if rho != 0.0:
            ahead, behind = np.roll(u, [-k for k in e], axes), np.roll(u, e, axes)
            out += rho * (ahead - 2.0 * u + behind) / g.hx**2
    return out


def _ref_phi_t_price(spec, P_j):
    return np.einsum("kd...,k->d...", spec.phi, P_j)


def _ref_upwind(spec, u_slice, g_shift):
    g = spec.grid
    xi_sq = np.zeros_like(u_slice)
    xi = np.zeros((g.d, *g.space_shape))
    for i in range(g.d):
        dp = (np.roll(u_slice, -1, axis=i) - u_slice) / g.hx
        dm = (u_slice - np.roll(u_slice, 1, axis=i)) / g.hx
        a = np.maximum(dm + g_shift[i], 0.0)
        b = np.minimum(dp + g_shift[i], 0.0)
        xi_sq += a * a + b * b
        xi[i] = a + b
    return xi_sq, xi


def _ref_diffusion_cfl(spec):
    return 2.0 * sum(abs(rho) for rho in _ref_split(spec.A).values()) / spec.grid.hx**2


def _ref_solve_hjb(m, P, spec):
    g = spec.grid
    u = np.empty(g.scalar_shape)
    u[g.nt] = spec.uT
    fm = spec.coupling_f(np.maximum(m, 0.0))
    diff_rate = _ref_diffusion_cfl(spec)
    for j in range(g.nt - 1, -1, -1):
        g_shift = _ref_phi_t_price(spec, P[j])
        n_sub = 1
        while True:
            dt = g.ht / n_sub
            cur = u[j + 1].copy()
            ok = True
            for _ in range(n_sub):
                xi_sq, _ = _ref_upwind(spec, cur, g_shift)
                norm = np.sqrt(xi_sq)
                speed = float(np.max(spec.c * np.where(norm > 0.0, norm ** (spec.r - 1.0), 0.0)))
                if dt * (g.d * speed / g.hx + diff_rate) > picard.CFL_SAFETY * (1.0 + 1e-12):
                    ok = False
                    break
                ham = spec.c * xi_sq ** (spec.r / 2.0) / spec.r
                cur = cur + dt * (_ref_diffusion(g, spec.A, cur) - ham + fm[j + 1])
            if ok:
                break
            n_sub *= 2
        u[j] = cur
    return u


def _ref_feedback(u, P, spec):
    g = spec.grid
    v = np.empty(g.vector_shape)
    for j in range(g.nt + 1):
        _, xi = _ref_upwind(spec, u[j], _ref_phi_t_price(spec, P[j]))
        v[j] = -spec.dH(xi)
    return v


def _ref_solve_fp(v, spec):
    g = spec.grid
    m = np.empty(g.scalar_shape)
    m[0] = spec.m0
    diff_rate = _ref_diffusion_cfl(spec)
    for n in range(1, g.nt + 1):
        drift = v[n - 1]
        rate = g.d * float(np.max(np.abs(drift))) / g.hx + diff_rate
        n_sub = max(1, int(np.ceil(rate * g.ht / picard.CFL_SAFETY - 1e-12)))
        dt = g.ht / n_sub
        cur = m[n - 1].copy()
        for _ in range(n_sub):
            flux_div = np.zeros_like(cur)
            for i in range(g.d):
                v_face = 0.5 * (drift[i] + np.roll(drift[i], -1, axis=i))
                flux = np.maximum(v_face, 0.0) * cur + np.minimum(v_face, 0.0) * np.roll(cur, -1, axis=i)
                flux_div += (flux - np.roll(flux, 1, axis=i)) / g.hx
            cur = cur - dt * flux_div + dt * _ref_diffusion(g, spec.A, cur)
        m[n] = cur
    return m


def _ref_update_price(m, v, spec):
    g = spec.grid
    phi_flat = spec.phi.reshape(spec.k, g.d, g.n_space)
    P = np.empty((g.nt + 1, spec.k))
    for j in range(g.nt + 1):
        z = np.einsum("kds,ds->k", phi_flat, (v[j] * m[j]).reshape(g.d, g.n_space)) * g.cell_volume
        P[j] = spec.Psi(z)
    return P


def _stage_pairs(spec, m, P):
    """(new, reference) output pairs of the four stages, chained from (m, P)."""
    u_ref = _ref_solve_hjb(m, P, spec)
    v_ref = _ref_feedback(u_ref, P, spec)
    m_ref = _ref_solve_fp(v_ref, spec)
    return {
        "solve_hjb": (solve_hjb(m, P, spec), u_ref),
        "feedback": (feedback(u_ref, P, spec), v_ref),
        "solve_fp": (solve_fp(v_ref, spec), m_ref),
        "update_price": (update_price(m_ref, v_ref, spec), _ref_update_price(m_ref, v_ref, spec)),
    }


def _diffusive_2d_case(nx, nt, seed):
    """A 2-D spec with A != 0 and a k = 2 per-node phi, and a random (m, P)."""
    g = Grid(d=2, nx=nx, nt=nt, T=1.0)
    rng = np.random.default_rng(seed)
    X, Y = g.meshgrid()
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, k=2, c=0.5,
                       phi=1.0 + 0.3 * rng.standard_normal((2, 2, nx, nx)),
                       A=np.array([[0.01, 0.004], [0.004, 0.01]]),
                       m0=1.0 + 0.5 * np.cos(2 * np.pi * X), uT=np.sin(2 * np.pi * Y))
    m = np.abs(1.0 + 0.3 * rng.standard_normal(g.scalar_shape))
    P = 0.5 * rng.standard_normal((g.nt + 1, 2))
    return spec, m, P


def _bump_case(spec):
    """The bump's m0 at every slice and a smooth price path."""
    g = spec.grid
    m = np.broadcast_to(spec.m0, g.scalar_shape).copy()
    P = 0.2 * np.sin(np.linspace(0.0, 3.0, g.nt + 1))[:, None]
    return spec, m, P


def test_vectorised_stages_match_reference_2d_diffusion():
    for name, (new, ref) in _stage_pairs(*_diffusive_2d_case(8, 4, 11)).items():
        assert new.shape == ref.shape, name
        assert np.max(np.abs(new - ref)) <= 1e-14, name


def test_vectorised_stages_bit_identical_on_bump(bump_spec):
    for name, (new, ref) in _stage_pairs(*_bump_case(bump_spec)).items():
        assert np.array_equal(new, ref), name


def _cfl_bound_case(nx=48, nt=10, r=3, amp=0.3):
    """A per-node c (so kappa != 1) and a steep u_T, so the value sweep's CFL bound binds."""
    g = Grid(d=1, nx=nx, nt=nt, T=1.0)
    x = g.axis_coords()
    spec = ProblemSpec(grid=g, q=2, r=r, s=2, c=0.5 + 0.3 * np.cos(2 * np.pi * x),
                       m0=1.0 + 0.5 * np.cos(2 * np.pi * x), uT=amp * np.sin(2 * np.pi * x))
    spec, m, P = _bump_case(spec)
    xi_sq, _ = _ref_upwind(spec, spec.uT, _ref_phi_t_price(spec, P[g.nt - 1]))
    rate = g.d * float(np.max(spec.c * np.sqrt(xi_sq) ** (spec.r - 1.0))) / g.hx
    assert g.ht * rate > 8.0 * picard.CFL_SAFETY  # the last interval doubles its substeps at least four times
    return spec, m, P


@pytest.mark.parametrize("case", [lambda: _bump_case(bump_instance(nx=48, nt=40)),
                                  lambda: _diffusive_2d_case(12, 6, 12), _cfl_bound_case],
                         ids=["bump_1d", "diffusive_2d", "per_node_c_r3_cfl_bound"])
def test_vectorised_stages_match_reference_off_powers_of_two(case):
    # hx = 1/48 or 1/12 and ht = 1/40, 1/6 or 1/10: the folded factors hx g,
    # 1/hx^r and dt/hx no longer scale exactly, so the stages match only to
    # rounding; the per-node c case also reads the CFL rate through the
    # scaled kappa S and doubles its substeps
    for name, (new, ref) in _stage_pairs(*case()).items():
        assert new.shape == ref.shape, name
        assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref)), name


@pytest.mark.parametrize("r, amp", [(2, 1.0), (3, 0.3)])
def test_value_sweep_doubling_substeps_on_powers_of_two(r, amp):
    # hx = 1/64 and ht = 1/16: the factors dt f(m), dt c / (r hx^r) and hx g, folded once
    # and halved as the substeps double, scale exactly.  A per-node c reads the CFL rate
    # through kappa S.  At r = 2 the value sweep is the reference bit for bit; at r = 3
    # the power (hx^2 xi_sq)^(3/2) is not hx^3 xi_sq^(3/2) to the bit, so it matches to
    # rounding, as do the transport substeps ht / n (n not a power of two)
    pairs = _stage_pairs(*_cfl_bound_case(64, 16, r, amp))
    if r == 2:
        assert np.array_equal(*pairs["solve_hjb"])
    for name, (new, ref) in pairs.items():
        assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref)), name


def test_picard_options_validation():
    for bad in ({"max_outer": 0}, {"damping": 0.0}, {"tol_fixed_point": -1e-3}, {"tol_fixed_point": float("nan")}):
        with pytest.raises(InvalidOption):
            PicardOptions(**bad)
