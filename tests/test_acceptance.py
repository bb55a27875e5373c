"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
measurements.
"""

import dataclasses
import time

import numpy as np
import pytest

from mfgcontrols.diagnostics import space_regularity, time_shift_sum
from mfgcontrols.grid import Grid, div_values, grad_values, inner_Q
from mfgcontrols.instances import bump_instance, uniform_instance
from mfgcontrols.model import ProblemSpec, case_2b_condition, kappa_bar
from mfgcontrols.picard import solve_fp
from mfgcontrols.prox import kinetic_kkt_residual, prox_F, prox_Phi_star, prox_kinetic_congestion
from mfgcontrols.varsolve import SolverOptions, solve_primal_dual
from mfgcontrols.verify import random_feasible_init, uniqueness_probe, weak_solution_report
from oracle import brute_prox_F, brute_prox_kinetic, brute_prox_phi_star, equilibrium_oracle


def _report(criterion, detail):
    print(f"\nPASS criterion {criterion}: {detail}")


def test_criterion_1_uniform_analytic_instance():
    spec = uniform_instance(nx=32, nt=32, T=1.0)
    t0 = time.perf_counter()
    sol, log = solve_primal_dual(spec, SolverOptions(max_iter=20000, tol_gap=1e-13))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert log.converged

    g = spec.grid
    tt = g.times()
    assert np.max(np.abs(sol.m - 1.0)) <= 1e-6
    assert np.max(np.abs(sol.w)) <= 1e-6
    assert np.max(np.abs(sol.P)) <= 1e-6
    assert np.max(np.abs(sol.u - (1.0 - tt)[:, None])) <= 1e-6
    assert np.max(np.abs(sol.gamma - 1.0)) <= 1e-6

    rep, verdict = weak_solution_report(sol, spec, tol=1e-6)
    assert verdict
    entries = rep.to_dict()
    for name, val in entries.items():
        if name == "m_min":
            assert val >= -1e-6
        else:
            assert abs(val) <= 1e-6, (name, val)
    _report(1, f"gap={entries['duality_gap']:.2e}, field errors <= 1e-6, {elapsed:.1f}s")


def test_criterion_2_duality_gap_on_bump():
    spec = bump_instance()
    t0 = time.perf_counter()
    sol, log = solve_primal_dual(spec, SolverOptions(max_iter=20000, tol_gap=1e-3))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert log.converged
    assert log.iterations <= 20000
    B, gap = log.B[-1], log.gap[-1]
    assert abs(gap) <= 1e-3 * (1.0 + abs(B))
    envelope = np.minimum.accumulate(np.abs(log.gap))
    assert np.all(np.diff(envelope) <= 0.0)
    _report(2, f"|B+D|={abs(gap):.2e} <= 1e-3*(1+|B|) after {log.iterations} iterations, {elapsed:.1f}s")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(5):
        g = Grid(d=1, nx=8, nt=8, T=1.0)
        x = g.axis_coords()
        m0 = 1.0 + rng.uniform(0.2, 0.5) * np.sin(2 * np.pi * x + rng.uniform(0, 6))
        uT = rng.uniform(0.1, 0.4) * np.cos(2 * np.pi * x + rng.uniform(0, 6))
        spec = ProblemSpec(
            grid=g, q=2.0, r=2.0, s=2.0,
            kappa_phi=float(rng.uniform(0.5, 2.0)),
            theta=float(rng.uniform(0.5, 2.0)),
            c=float(rng.uniform(0.3, 1.5)),
            phi=float(rng.uniform(0.5, 1.5)),
            m0=m0, uT=uT, k=1,
        )
        sol, log = solve_primal_dual(spec, SolverOptions(max_iter=200000, tol_gap=1e-12))
        assert log.converged
        t0 = time.perf_counter()
        m_or, _, _ = equilibrium_oracle(spec, outer=20, inner=2000, rho=50.0)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        dist = float(np.max(np.abs(m_or - sol.m[1:])))
        worst = max(worst, dist)
        assert dist <= 1e-3, (trial, dist)
    _report(3, f"5 random quadratic specs, worst Linf(m_pd - m_oracle) = {worst:.2e}")


def test_criterion_4_two_solver_agreement(bump_spec, bump_solved, bump_picard_solved):
    sol, _ = bump_solved
    pic = bump_picard_solved.solution
    g = bump_spec.grid
    m_l1 = float(np.sum(np.abs(sol.m - pic.m)) * g.ht * g.cell_volume)
    P_l1 = float(np.sum(np.abs(sol.P - pic.P)) * g.ht)
    assert m_l1 <= 1e-2
    assert P_l1 <= 1e-2
    _report(4, f"L1(m_pd - m_picard) = {m_l1:.2e}, L1(P_pd - P_picard) = {P_l1:.2e}")


def test_criterion_5_uniqueness_probe(bump_spec):
    probe = uniqueness_probe(bump_spec, SolverOptions(max_iter=60000, tol_gap=1e-6), n_inits=3, seed=0)
    assert probe.m_distance <= 1e-2
    assert probe.P_distance <= 1e-2
    _report(5, f"3 random starts: max L1(m_i - m_j) = {probe.m_distance:.2e}, max L1(P_i - P_j) = {probe.P_distance:.2e}")


def test_criterion_6_price_free_reduction():
    spec = bump_instance(nx=32, nt=32, kappa_phi=0.0)
    # degenerate-potential run (price block present, prox pins P to zero)
    sol_a, log_a = solve_primal_dual(spec, SolverOptions(max_iter=80000, tol_gap=1e-8))
    # classical congestion game as data: no aggregation kernel (phi = 0),
    # solved from a random start, so the iterates genuinely differ
    classical = dataclasses.replace(spec, phi=0.0)
    sol_b, log_b = solve_primal_dual(classical, SolverOptions(max_iter=80000, tol_gap=1e-8),
                                     init=random_feasible_init(classical, np.random.default_rng(0)))
    assert log_a.converged and log_b.converged
    assert np.max(np.abs(sol_a.P)) <= 1e-8
    g = spec.grid
    m_l1 = float(np.sum(np.abs(sol_a.m - sol_b.m)) * g.ht * g.cell_volume)
    assert 0.0 < m_l1 <= 1e-3
    _report(6, f"||P||_inf = {np.max(np.abs(sol_a.P)):.1e}, L1 distance to the classical solve = {m_l1:.2e}")


def test_criterion_7_exponent_classifier_scan():
    t0 = time.perf_counter()
    s_primes = np.linspace(1.05, 5.0, 20)
    ps = np.linspace(1.05, 5.0, 20)
    disagreements = 0
    checked = 0
    for d in (1, 2, 3):
        for sp in s_primes:
            r = sp  # case boundary s' >= r
            rt = np.linspace(1.0 + 1e-4, r, 10000)
            p_t = np.minimum.outer(ps, sp / rt)
            kappas = kappa_bar(np.broadcast_to(rt, p_t.shape), p_t, d)
            scan = np.max(kappas, axis=1) >= ps - 1e-12
            direct = np.array([case_2b_condition(sp, p, d) for p in ps])
            disagreements += int(np.sum(scan != direct))
            checked += len(ps)
    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert elapsed < 10.0
    _report(7, f"{checked * 1} cells x 10^4 exponents scanned, 0 disagreements, {elapsed:.1f}s")


def test_criterion_8_prox_kernels_against_brute_force():
    rng = np.random.default_rng(1234)
    worst_f = worst_p = worst_k = 0.0
    for _ in range(100):
        mbar = float(rng.uniform(-0.5, 2.5))
        tau = float(rng.uniform(0.1, 1.5))
        theta = float(rng.uniform(0.4, 2.5))
        q = float(rng.uniform(1.3, 3.5))
        m = prox_F(np.array(mbar), tau, theta, q)
        mb = brute_prox_F(mbar, tau, theta, q)
        worst_f = max(worst_f, abs(float(m) - mb))
        if mbar > 0:
            res = float(m) + tau * theta * float(m) ** (q - 1.0) - mbar
            assert abs(res) <= 1e-10
    for _ in range(100):
        pbar = float(rng.uniform(-2.0, 2.0))
        sigma = float(rng.uniform(0.1, 1.5))
        kappa = float(rng.uniform(0.4, 2.5))
        s = float(rng.uniform(1.3, 3.5))
        P = prox_Phi_star(np.array([pbar]), sigma, kappa, s)
        Pb = brute_prox_phi_star(pbar, sigma, kappa, s)
        worst_p = max(worst_p, abs(float(P[0]) - Pb))
        sp = s / (s - 1.0)
        res = float(P[0]) + sigma * kappa ** (1.0 - sp) * abs(float(P[0])) ** (sp - 1.0) * np.sign(P[0]) - pbar
        assert abs(res) <= 1e-10
    for _ in range(100):
        mbar = float(rng.uniform(-0.5, 2.0))
        wbar = float(rng.uniform(-1.5, 1.5))
        tau = float(rng.uniform(0.1, 1.5))
        c = float(rng.uniform(0.4, 2.5))
        r = float(rng.uniform(1.3, 3.5))
        m, w = prox_kinetic_congestion(np.array(mbar), np.array([wbar]), tau, c, r)
        mb, wb = brute_prox_kinetic(mbar, wbar, tau, c, r)
        worst_k = max(worst_k, abs(float(m) - mb), abs(float(w[0]) - wb))
        kkt = kinetic_kkt_residual(m, w, np.array(mbar), np.array([wbar]), tau, c, r)
        assert float(kkt) <= 1e-10
    assert worst_f <= 1e-3
    assert worst_p <= 1e-3
    assert worst_k <= 1e-3
    _report(8, f"100 instances each: worst |prox - brute| F {worst_f:.1e}, Phi* {worst_p:.1e}, kinetic {worst_k:.1e}")


def test_criterion_9_structural_invariants(uniform_solved, bump_solved):
    # adjointness at 1e-12 relative
    g = Grid(d=2, nx=12, nt=4, T=1.0)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(g.scalar_shape)
    w = rng.standard_normal(g.vector_shape)
    lhs = inner_Q(g, grad_values(g, u), w)
    rhs = inner_Q(g, u, div_values(g, w))
    rel = abs(lhs + rhs) / (np.linalg.norm(u) * np.linalg.norm(w))
    assert rel <= 1e-12

    # conservative transport: per-step mass drift at 1e-12
    spec = uniform_instance(nx=32, nt=16)
    gg = spec.grid
    v = 0.7 * np.sin(2 * np.pi * gg.axis_coords())[None, None, :] * np.ones(gg.vector_shape)
    m = solve_fp(v, spec)
    masses = m.sum(axis=1) * gg.cell_volume
    drift = float(np.max(np.abs(np.diff(masses))))
    assert drift <= 1e-12

    # density nonnegativity along the saddle-point iterates of both runs
    _, log = uniform_solved
    _, log_b = bump_solved
    m_min = min(log.m_min, log_b.m_min)
    assert m_min >= -1e-12
    _report(9, f"adjointness {rel:.1e}, mass drift {drift:.1e}, iterate m_min {m_min:.1e}")


def test_criterion_10_regularity_scaling(bump_spec, bump_solved):
    sol, _ = bump_solved
    eps_list = [0.02, 0.04, 0.08]
    sums = [time_shift_sum(sol, bump_spec, e) for e in eps_list]
    slope = float(np.polyfit(np.log(eps_list), np.log(sums), 1)[0])
    assert abs(slope - 2.0) <= 0.3

    norms = []
    for nx in (16, 32):
        s = bump_instance(nx=nx, nt=nx)
        so, lg = solve_primal_dual(s, SolverOptions(max_iter=60000, tol_gap=1e-6))
        assert lg.converged
        norms.append(space_regularity(so, s)[0])
    norms.append(space_regularity(sol, bump_spec)[0])
    variation = (max(norms) - min(norms)) / min(norms)
    assert variation <= 0.25
    _report(10, f"time-shift slope = {slope:.3f} (2 +/- 0.3), space norm spread across Nx 16/32/64 = {variation:.1%}")
