import numpy as np
import pytest

import oracles
from oracles import jittered_box
from pnpfem import assembly
from pnpfem import gummel as gummel_module
from pnpfem.gummel import (
    State,
    StepProblem,
    contraction_stats,
    gummel_solve,
    gummel_step,
    solve_potential,
)
from pnpfem.linalg import NonConvergenceError, spmv
from pnpfem.manufactured import exact_eval, scheme_config, transient_problem
from pnpfem.mesh import build_box_mesh
from pnpfem.quadrature import rule_for_order

BOX = ((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))


def build_problem(mesh, scfg, tc, prev, t_next, tau):
    bmask = mesh.boundary
    ov = assembly.lumped_volumes(mesh)

    bc = np.zeros((3, mesh.n_nodes))
    bc[:, bmask] = tc.boundary(mesh.nodes[bmask])(t_next)
    sources = oracles.sampled_sources(tc.sources, assembly.quadrature_points(mesh), t_next)
    g_phi, g1, g2 = assembly.assemble_load(mesh, sources)
    f_np = np.stack(
        (tau * g1 + ov / 4.0 * prev.p1, tau * g2 + ov / 4.0 * prev.p2)
    )
    p_tau_f = None
    if scfg.scheme == "supg":
        # int_K (p^n_h + tau F), with p^n_h sampled at the quadrature points
        bary = rule_for_order(2)[0]
        p_points = (prev.concentrations()[:, mesh.tets] @ bary.T).reshape(2, -1)
        p_tau_f = assembly.element_integrals(mesh, p_points + tau * sources[1:])
    return StepProblem(
        mesh=mesh,
        cfg=scfg,
        tau=tau,
        t_next=t_next,
        g_phi=g_phi,
        f_np=f_np,
        bc=bc,
        p_tau_f_elem_int=p_tau_f,
    )


def zero_problem(mesh, scfg, tau):
    zero = lambda pts: lambda t: np.zeros((3, len(pts)))
    zero0 = lambda pts: np.zeros((2, len(pts)))
    no_sources = (lambda t: np.zeros((3, 1)), lambda pts: np.zeros((1, len(pts))))
    tc = transient_problem(T=tau, tau=tau, sources=no_sources, boundary=zero, initial=zero0)
    n = mesh.n_nodes
    prev = State(np.zeros(n), np.zeros(n), np.zeros(n), 0.0)
    return build_problem(mesh, scfg, tc, prev, tau, tau), prev


def test_zero_data_returns_zero_state():
    mesh = build_box_mesh(2, *BOX)
    problem, prev = zero_problem(mesh, scheme_config("eafe"), 0.01)
    new = gummel_step(problem, prev)
    assert np.all(new.phi == 0.0)
    assert np.all(new.p1 == 0.0)
    assert np.all(new.p2 == 0.0)
    state, report = gummel_solve(problem, prev)
    assert report.converged
    assert report.iterations == 1
    assert report.ratios.size == 0
    assert np.isnan(report.alpha_bar)


def test_fixed_point_converges_in_one_sweep():
    mesh = build_box_mesh(3, *BOX)
    scfg = scheme_config("fem")
    tc = transient_problem(T=0.25, tau=0.01)
    tau, t_next = 0.01, 0.01
    n = mesh.n_nodes
    prev = State(np.zeros(n), np.zeros(n), np.zeros(n), 0.0)
    problem = build_problem(mesh, scfg, tc, prev, t_next, tau)
    # converge tightly first, then restart from the fixed point
    fixed, _ = gummel_solve(problem, prev, eps=1e-12, maxit=50)
    state, report = gummel_solve(problem, fixed, eps=1e-6, maxit=10)
    assert report.converged
    assert report.iterations == 1


def test_solve_potential_is_the_sweep_potential_solve():
    mesh = build_box_mesh(3, *BOX)
    scfg = scheme_config("fem")
    tc = transient_problem(T=0.25, tau=0.01)
    rng = np.random.default_rng(13)
    n = mesh.n_nodes
    prev = State(np.zeros(n), rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n), 0.0)
    problem = build_problem(mesh, scfg, tc, prev, 0.01, 0.01)
    bmask = mesh.boundary
    phi = solve_potential(mesh, scfg, problem.g_phi, problem.bc[0], (prev.p1, prev.p2), prev.phi)
    # boundary rows hold the g_u data exactly
    assert np.array_equal(phi[bmask], tc.boundary(mesh.nodes[bmask])(0.01)[0])
    rhs = problem.g_phi.copy()
    mass = assembly.lumped_volumes(mesh) / 4.0
    for z, p_i in zip(scfg.charges, (prev.p1, prev.p2)):
        rhs += z * (mass * p_i)
    rhs[bmask] = problem.bc[0][bmask]
    matrix = assembly.potential_system(mesh)[0]
    residual = np.linalg.norm(rhs - spmv(matrix, phi))
    assert residual <= scfg.linear_tol * np.linalg.norm(rhs)
    # the sweep solves the same system the same way, bit for bit
    assert np.array_equal(gummel_step(problem, prev).phi, phi)


def test_iterates_match_dense_oracle_pipeline():
    # reference implementation of the decoupled iteration: dense matrices
    # from the quadrature oracle, numpy direct solves
    mesh = build_box_mesh(4, *BOX)
    tau = (1.0 / 4.0) ** 2
    tc = transient_problem(T=0.25, tau=tau)
    bmask = mesh.boundary
    charges, drift = (1.0, -1.0), (0.179, -0.179)

    a_dense = oracles.dirichlet_rows(oracles.oracle_stiffness(mesh), bmask)
    lump = oracles.oracle_lumped_mass(mesh)

    # supg starts from the exact carriers at t = 0.1, so its previous-level
    # term is not zero
    for scheme, t_prev in (("fem", 0.0), ("eafe", 0.0), ("supg", 0.1)):
        t_next = t_prev + tau
        prev = State(*(exact_eval(f, mesh.nodes, t_prev)[0] for f in ("u", "p", "n")), t_prev)
        scfg = scheme_config(scheme, linear_tol=1e-13)
        problem = build_problem(mesh, scfg, tc, prev, t_next, tau)
        # the algebraic iteration acts on given load vectors; take them from
        # the problem so only the matrices and the sweep structure differ
        # (load assembly is oracle-verified separately)
        g_phi = problem.g_phi
        sources = oracles.sampled_sources(tc.sources, assembly.quadrature_points(mesh), t_next)
        source_int = assembly.element_integrals(mesh, sources[1:])

        p_ref = [prev.p1.copy(), prev.p2.copy()]
        state = State(prev.phi.copy(), prev.p1.copy(), prev.p2.copy(), t_next)
        for sweep in range(3):
            # reference sweep
            rhs = g_phi + charges[0] * lump * p_ref[0] + charges[1] * lump * p_ref[1]
            rhs[bmask] = tc.boundary(mesh.nodes[bmask])(t_next)[0]
            phi_ref = np.linalg.solve(a_dense, rhs)
            for i, c_i in enumerate(drift):
                mat = oracles.oracle_np_matrix(mesh, phi_ref, c_i, tau, scheme)
                rhs_i = problem.f_np[i].copy()
                if scheme == "supg":
                    _, s_time, node_w = oracles.oracle_supg_parts(mesh, phi_ref, c_i, 1.0)
                    rhs_i += s_time @ prev.concentrations()[i]
                    np.add.at(rhs_i, mesh.tets, tau * node_w * source_int[i][:, None])
                rhs_i[bmask] = tc.boundary(mesh.nodes[bmask])(t_next)[1 + i]
                p_ref[i] = np.linalg.solve(mat, rhs_i)
            # production sweep
            state = gummel_step(problem, state)
            assert np.abs(state.phi - phi_ref).max() < 1e-8
            assert np.abs(state.p1 - p_ref[0]).max() < 1e-8
            assert np.abs(state.p2 - p_ref[1]).max() < 1e-8


def test_scheme_agnostic_driver():
    # one driver, three schemes: only the operator changes
    mesh = build_box_mesh(2, *BOX)
    tc = transient_problem(T=0.01, tau=0.01)
    n = mesh.n_nodes
    prev = State(np.zeros(n), np.zeros(n), np.zeros(n), 0.0)
    results = {}
    for scheme in ("fem", "supg", "eafe"):
        problem = build_problem(mesh, scheme_config(scheme), tc, prev, 0.01, 0.01)
        state, report = gummel_solve(problem, prev)
        assert report.converged
        results[scheme] = state.p1
    # diffusion-dominated benchmark: schemes agree closely but not exactly
    assert np.abs(results["fem"] - results["eafe"]).max() < 1e-3


def test_report_invariants():
    mesh = build_box_mesh(3, *BOX)
    tc = transient_problem(T=0.02, tau=0.01)
    n = mesh.n_nodes
    prev = State(np.zeros(n), np.zeros(n), np.zeros(n), 0.0)
    problem = build_problem(mesh, scheme_config("eafe"), tc, prev, 0.01, 0.01)
    state, report = gummel_solve(problem, prev, eps=1e-6, maxit=500)
    assert report.converged
    assert report.final_increment <= 1e-6
    assert report.increments_l2.shape == (report.iterations, 3)
    assert report.ratios.size <= max(report.iterations - 1, 0)
    assert (report.ratios >= 0.0).all()


def test_maxit_exhaustion_is_reported_not_raised():
    mesh = build_box_mesh(3, *BOX)
    tc = transient_problem(T=0.01, tau=0.01)
    n = mesh.n_nodes
    prev = State(np.zeros(n), np.zeros(n), np.zeros(n), 0.0)
    problem = build_problem(mesh, scheme_config("fem"), tc, prev, 0.01, 0.01)
    state, report = gummel_solve(problem, prev, eps=1e-30, maxit=2)
    assert not report.converged
    assert report.iterations == 2


def test_linear_solver_failure_carries_sweep_index():
    # enough interior unknowns that one CG iteration cannot converge; the
    # jittered mesh is no tensor grid, so CG starts from the warm start
    mesh = jittered_box(4)
    assert assembly.potential_system(mesh)[1] is None
    tc = transient_problem(T=0.01, tau=0.01)
    n = mesh.n_nodes
    prev = State(np.zeros(n), np.zeros(n), np.zeros(n), 0.0)
    scfg = scheme_config("fem", linear_maxit=1, linear_tol=1e-15)
    problem = build_problem(mesh, scfg, tc, prev, 0.01, 0.01)
    with pytest.raises(NonConvergenceError) as err:
        gummel_solve(problem, prev)
    assert "sweep" in str(err.value)
    assert "potential solve" in str(err.value)


def potential_data(mesh, seed=0):
    rng = np.random.default_rng(seed)
    n = mesh.n_nodes
    matrix = assembly.potential_system(mesh)[0]
    load, bc, p1, p2 = rng.uniform(-1.0, 1.0, (4, n))
    mass = assembly.lumped_volumes(mesh) / 4.0
    rhs = load + mass * (p1 - p2)
    rhs[mesh.boundary] = bc[mesh.boundary]
    return matrix, load, bc, (p1, p2), rhs


def record_potential_solves(monkeypatch):
    results, solve = [], gummel_module.solve_spd

    def recording(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(gummel_module, "solve_spd", recording)
    return results


@pytest.mark.parametrize("n, hi", [(5, (0.5,) * 3), (4, (1.0, 2.0, 3.0))])
def test_potential_solve_on_a_grid_needs_no_cg_iteration(monkeypatch, n, hi):
    mesh = build_box_mesh(n, (-0.5,) * 3, hi)
    scfg = scheme_config("fem", linear_tol=1e-13)
    matrix, load, bc, p, rhs = potential_data(mesh)
    results = record_potential_solves(monkeypatch)
    phi = solve_potential(mesh, scfg, load, bc, p, np.zeros(mesh.n_nodes))
    assert [r.iterations for r in results] == [0]
    assert np.linalg.norm(spmv(matrix, phi) - rhs) <= scfg.linear_tol * np.linalg.norm(rhs)


def test_potential_solve_verifies_a_wrong_grid_guess(monkeypatch):
    mesh = build_box_mesh(5, *BOX)
    scfg = scheme_config("fem")
    grid = assembly.potential_system(mesh)[1]
    eig = grid.eig.copy()
    eig[0, 0, 0] *= 2.0
    monkeypatch.setattr(grid, "eig", eig)
    matrix, load, bc, p, rhs = potential_data(mesh)
    results = record_potential_solves(monkeypatch)
    phi = solve_potential(mesh, scfg, load, bc, p, np.zeros(mesh.n_nodes))
    assert results[0].iterations > 0
    assert np.linalg.norm(spmv(matrix, phi) - rhs) <= scfg.linear_tol * np.linalg.norm(rhs)


def test_potential_solve_without_interior_returns_the_boundary_data():
    mesh = build_box_mesh(1, *BOX)
    matrix, load, bc, p, _ = potential_data(mesh)
    phi = solve_potential(mesh, scheme_config("fem"), load, bc, p, np.zeros(8))
    assert np.array_equal(phi, bc)


def record_species_solves(monkeypatch):
    calls, solve = [], gummel_module.solve_general

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return solve(*args, **kwargs)

    monkeypatch.setattr(gummel_module, "solve_general", recording)
    return calls


@pytest.mark.parametrize("make, drift, dst", [
    (lambda: build_box_mesh(4, *BOX), 0.179, True),
    (lambda: jittered_box(4), 0.179, False),
    (lambda: build_box_mesh(4, *BOX), 100.0, False),     # edge Peclet number above 1
], ids=["grid", "jittered", "peclet"])
def test_species_solves_take_the_free_rows_and_the_gated_preconditioner(monkeypatch, make,
                                                                       drift, dst):
    mesh = make()
    scfg = scheme_config("eafe", drift=(drift, -drift))
    tc = transient_problem(T=0.01, tau=0.01)
    n = mesh.n_nodes
    prev = State(np.zeros(n), np.ones(n), np.zeros(n), 0.0)    # net charge 1: phi of order 0.05
    problem = build_problem(mesh, scfg, tc, prev, 0.01, 0.01)
    calls = record_species_solves(monkeypatch)
    gummel_step(problem, prev)
    assert len(calls) == 2
    for kwargs in calls:
        assert np.array_equal(kwargs["free"], ~mesh.boundary)
        assert (kwargs["precond"] is not None) == dst


def test_determinism_bitwise():
    mesh = build_box_mesh(3, *BOX)
    tc = transient_problem(T=0.02, tau=0.01)
    n = mesh.n_nodes
    prev = State(np.zeros(n), np.zeros(n), np.zeros(n), 0.0)
    problem = build_problem(mesh, scheme_config("supg"), tc, prev, 0.01, 0.01)
    s1, r1 = gummel_solve(problem, prev)
    s2, r2 = gummel_solve(problem, prev)
    assert np.array_equal(s1.p1, s2.p1)
    assert np.array_equal(s1.phi, s2.phi)
    assert np.array_equal(r1.increments_l2, r2.increments_l2)
    assert np.array_equal(r1.ratios, r2.ratios)


def test_contraction_stats_basics():
    def make_report(ratios):
        ratios = np.asarray(ratios, dtype=float)
        nonzero = ratios[ratios > 0]
        from pnpfem.gummel import GummelReport

        return GummelReport(
            iterations=len(ratios) + 1,
            converged=True,
            increments_l2=np.zeros((len(ratios) + 1, 3)),
            ratios=ratios,
            alpha_bar=float(nonzero.mean()) if nonzero.size else float("nan"),
        )

    s = contraction_stats([make_report([0.1, 0.2])])
    assert s.alpha_bar == pytest.approx(0.15)
    s = contraction_stats([make_report([0.0, 0.0])])
    assert np.isnan(s.alpha_bar) or s.alpha_bar == 0.0
    s = contraction_stats([make_report([0.1, 0.2]), make_report([0.3])])
    assert s.alpha_bar == pytest.approx((0.15 + 0.3) / 2.0)
    assert s.max_ratio == pytest.approx(0.3)
    with pytest.raises(ValueError):
        contraction_stats([])


def test_state_validation():
    with pytest.raises(ValueError):
        State(np.zeros(3), np.zeros(3), np.zeros(4), 0.0)
