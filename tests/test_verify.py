import numpy as np
import pytest

from mfgcontrols.errors import NotPSD
from mfgcontrols.grid import Grid
from mfgcontrols.instances import uniform_instance
from mfgcontrols.model import ProblemSpec
from mfgcontrols.picard import picard_iterate, solve_fp, solve_hjb
from mfgcontrols.varsolve import SolverOptions, random_feasible_init, solve_primal_dual, uniqueness_probe
from mfgcontrols.verify import Solution, complementarity_value, weak_solution_report


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
def uni8():
    return uniform_instance(nx=8, nt=4)


def test_complementarity_uniform_exact(uni8):
    sol = exact_uniform_solution(uni8)
    # the running term integrates to T, the boundary pairing to -T
    assert complementarity_value(sol, uni8) == pytest.approx(0.0, abs=1e-14)


def test_complementarity_pure_congestion(uni8):
    g = uni8.grid
    sol = Solution(
        grid=g,
        u=np.zeros(g.scalar_shape),
        m=np.broadcast_to(uni8.m0, g.scalar_shape).copy(),
        w=np.zeros(g.vector_shape),
        P=np.zeros((g.nt + 1, 1)),
        gamma=uni8.coupling_f(np.broadcast_to(uni8.m0, g.scalar_shape)),
    )
    expected = float(np.sum(uni8.m0 * uni8.coupling_f(uni8.m0)) * g.cell_volume * g.T)
    assert complementarity_value(sol, uni8) == pytest.approx(expected, abs=1e-13)


def test_complementarity_linear_in_initial_value(uni8):
    sol = exact_uniform_solution(uni8)
    base = complementarity_value(sol, uni8)
    u2 = sol.u.copy()
    u2[0] += 1.0
    sol2 = Solution(grid=uni8.grid, u=u2, m=sol.m, w=sol.w, P=sol.P, gamma=sol.gamma)
    assert complementarity_value(sol2, uni8) == pytest.approx(base - 1.0, abs=1e-13)
    u3 = sol.u.copy()
    u3[0] -= 0.25
    sol3 = Solution(grid=uni8.grid, u=u3, m=sol.m, w=sol.w, P=sol.P, gamma=sol.gamma)
    assert complementarity_value(sol3, uni8) == pytest.approx(base + 0.25, abs=1e-13)


def test_complementarity_perspective_violation(uni8):
    sol = exact_uniform_solution(uni8)
    m = sol.m.copy()
    w = sol.w.copy()
    m[2, 3] = 0.0
    w[2, 0, 3] = 0.7
    bad = Solution(grid=uni8.grid, u=sol.u, m=m, w=w, P=sol.P, gamma=sol.gamma)
    assert complementarity_value(bad, uni8) == np.inf


def test_report_exact_uniform_verdict(uni8):
    sol = exact_uniform_solution(uni8)
    rep, verdict = weak_solution_report(sol, uni8, tol=1e-8)
    assert verdict
    for name, val in rep.to_dict().items():
        if name == "m_min":
            assert val >= 1.0 - 1e-14
        else:
            assert abs(val) <= 1e-12, (name, val)


def test_report_price_perturbation(uni8):
    sol = exact_uniform_solution(uni8)
    P_bad = np.ones((uni8.grid.nt + 1, 1))
    bad = Solution(grid=uni8.grid, u=sol.u, m=sol.m, w=sol.w, P=P_bad, gamma=sol.gamma)
    rep, verdict = weak_solution_report(bad, uni8, tol=1e-8)
    assert not verdict
    assert rep.price_residual == pytest.approx(uni8.grid.T, abs=1e-12)


def test_report_solver_output(bump_spec, bump_solved):
    sol, log = bump_solved
    rep, verdict = weak_solution_report(sol, bump_spec, tol=5e-3)
    assert verdict, rep.to_dict()


def test_uniqueness_probe_single_init(uni8):
    probe = uniqueness_probe(uni8, SolverOptions(max_iter=2000, tol_gap=1e-6), n_inits=1, seed=0)
    assert probe.m_distance == 0.0
    assert probe.P_distance == 0.0


def test_uniqueness_probe_uniform(uni8):
    probe = uniqueness_probe(uni8, SolverOptions(max_iter=20000, tol_gap=1e-8), n_inits=3, seed=1)
    assert probe.m_distance <= 1e-4
    assert probe.P_distance <= 1e-4


def test_random_feasible_init_contract(uni8):
    rng = np.random.default_rng(0)
    sol = random_feasible_init(uni8, rng)
    g = uni8.grid
    masses = sol.m.sum(axis=1) * g.cell_volume
    assert np.max(np.abs(masses - 1.0)) <= 1e-12
    assert np.min(sol.m) >= 0.0
    assert np.all(sol.w[0] == 0.0)


@pytest.mark.parametrize("d,A", [(1, [[-0.01]]), (2, [[0.01, 0.0], [0.0, -1e-6]]), (2, [[0.01, 0.005], [0.0, 0.01]])])
def test_solver_entries_reject_non_psd_diffusion(d, A):
    # A is validated once per entry rather than inside the stencil; every
    # entry that applies diffusion must still refuse a non-PSD matrix
    g = Grid(d=d, nx=8, nt=4, T=1.0)
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, A=np.array(A), m0=np.ones(g.space_shape))
    sol = Solution(grid=g, u=np.zeros(g.scalar_shape), m=np.ones(g.scalar_shape),
                   w=np.zeros(g.vector_shape), P=np.zeros((g.nt + 1, 1)), gamma=np.ones(g.scalar_shape))
    entries = {
        "solve_primal_dual": lambda: solve_primal_dual(spec, SolverOptions(max_iter=5)),
        "picard_iterate": lambda: picard_iterate(spec),
        "solve_hjb": lambda: solve_hjb(sol.m, sol.P, spec),
        "solve_fp": lambda: solve_fp(sol.w, spec),
        "weak_solution_report": lambda: weak_solution_report(sol, spec),
    }
    for name, call in entries.items():
        with pytest.raises(NotPSD):
            call()
            pytest.fail(f"{name} accepted a non-PSD A")
