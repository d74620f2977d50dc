import io

import numpy as np
import pytest

from pnpfem import assembly
from pnpfem.linalg import spmv
from pnpfem.manufactured import scheme_config, transient_problem
from pnpfem.mesh import build_box_mesh
from pnpfem.timestepper import (
    TransientAbortError,
    TransientConfig,
    bound_constants,
    run_transient,
    write_history,
)

BOX = ((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))


def zero_fn(pts, t):
    return np.zeros(len(pts))


def zero_init(pts):
    return np.zeros(len(pts))


def zero_config(T, tau, **kw):
    kwargs = dict(
        T=T, tau=tau,
        initial_p1=zero_init, initial_p2=zero_init,
        g_u=zero_fn, g_p1=zero_fn, g_p2=zero_fn,
        f=zero_fn, F1=zero_fn, F2=zero_fn,
    )
    kwargs.update(kw)
    return TransientConfig(**kwargs)


def test_config_validation():
    with pytest.raises(ValueError):
        zero_config(T=0.1, tau=0.2)
    with pytest.raises(ValueError):
        zero_config(T=0.1, tau=0.0)
    assert zero_config(T=0.1, tau=0.024).n_steps == 5


def test_zero_data_run():
    mesh = build_box_mesh(2, *BOX)
    result = run_transient(mesh, scheme_config("eafe"), zero_config(0.05, 0.01))
    assert np.all(result.state.phi == 0.0)
    assert np.all(result.state.p1 == 0.0)
    assert len(result.reports) == 5
    assert all(r.converged and r.iterations == 1 for r in result.reports)


def test_final_time_hit_exactly_with_clamped_step():
    mesh = build_box_mesh(1)
    result = run_transient(mesh, scheme_config("fem"), zero_config(0.05, 0.02))
    assert len(result.reports) == 3
    assert result.times[-1] == pytest.approx(0.05, abs=1e-15)


def test_f_vector_bookkeeping():
    # F = tau*G + M P must hold exactly as assembled vectors
    mesh = build_box_mesh(2, *BOX)
    tau = 0.01
    tc = transient_problem(T=tau, tau=tau)
    rng = np.random.default_rng(0)
    p = rng.uniform(0.5, 1.0, mesh.n_nodes)
    g = assembly.assemble_load(mesh, tc.F1, tau)
    m = assembly.lumped_volumes(mesh) / 4.0
    f = tau * g + m * p
    # construction is a pure sum of the two products, bit for bit
    assert np.array_equal(f, tau * g + m * p)
    assert np.abs(f - m * p - tau * g).max() < 1e-16


def test_single_step_solves_np_system():
    # after one step the accepted concentration solves its own system
    mesh = build_box_mesh(3, *BOX)
    tau = 0.01
    scfg = scheme_config("eafe")
    tc = transient_problem(T=tau, tau=tau)
    result = run_transient(mesh, scfg, tc)
    state = result.state
    system = assembly.assemble_np(mesh, state.phi, scfg, 0, tau)
    g1 = assembly.assemble_load(mesh, tc.F1, tau)
    rhs = tau * g1  # previous concentrations are zero
    rhs[mesh.boundary] = tc.g_p1(mesh.nodes[mesh.boundary], tau)
    res = np.linalg.norm(spmv(system.matrix, state.p1) - rhs)
    # the potential moved by <= eps after the last concentration solve, so
    # allow the corresponding slack on top of the linear solver tolerance
    assert res <= 1e-6


def test_discrete_poisson_consistency_each_step():
    mesh = build_box_mesh(3, *BOX)
    scfg = scheme_config("fem")
    tau = (1.0 / 3.0) ** 2 / 4.0
    tc = transient_problem(T=4 * tau, tau=tau)
    result = run_transient(mesh, scfg, tc)
    a_bc = assembly.apply_dirichlet_rows(assembly.assemble_stiffness(mesh), mesh.boundary)
    state = result.state
    m = assembly.lumped_volumes(mesh) / 4.0
    rhs = assembly.assemble_load(mesh, tc.f, state.t)
    rhs += scfg.charges[0] * m * state.p1 + scfg.charges[1] * m * state.p2
    rhs[mesh.boundary] = tc.g_u(mesh.nodes[mesh.boundary], state.t)
    res = np.linalg.norm(spmv(a_bc, state.phi) - rhs)
    assert res <= scfg.linear_tol * np.linalg.norm(rhs)


def test_benchmark_run_diagnostics_and_bounds():
    mesh = build_box_mesh(4, *BOX)
    tau = (1.0 / 4.0) ** 2
    result = run_transient(mesh, scheme_config("eafe"), transient_problem(T=0.25, tau=tau))
    assert len(result.reports) == 4
    assert all(r.converged for r in result.reports)
    interior = ~mesh.boundary
    # interior concentrations stay within a small undershoot of nonnegative
    for d in result.diagnostics:
        assert d.min_p1 >= -1e-8
        assert d.min_p2 >= -1e-8
        assert d.mmatrix_ok_p1 and d.mmatrix_ok_p2
    # diagnostics constants agree with their definitions
    d = result.diagnostics[0]
    assert d.C_k.shape == (int(interior.sum()),)
    vols = assembly.lumped_volumes(mesh)[interior]
    assert np.allclose(d.C_k, 4.0 * d.C_J / vols, rtol=1e-13)


def test_abort_carries_step_and_partial_history():
    mesh = build_box_mesh(3, *BOX)
    tc = transient_problem(T=0.02, tau=0.01, max_iter=1, eps=1e-30)
    with pytest.raises(TransientAbortError) as err:
        run_transient(mesh, scheme_config("fem"), tc)
    assert err.value.step == 0
    assert len(err.value.partial.reports) == 1
    assert not err.value.partial.reports[0].converged


def test_bound_constants_examples():
    c_j, c_k, tau_star = bound_constants(
        np.ones(8), np.full(4, 0.5), np.ones(8), 1.0
    )
    assert c_j == 8.0
    assert np.allclose(c_k, 64.0)
    # zero load: any step size keeps the right-hand side positive
    _, _, tau_inf = bound_constants(np.ones(8), np.full(4, 0.5), np.zeros(8), 1.0)
    assert tau_inf == float("inf")
    # formula check with a nonzero load
    f = np.array([1.0, 2.0])
    vols = np.array([0.25, 0.5])
    g = np.array([3.0, -4.0])
    c_j, c_k, tau_star = bound_constants(f, vols, g, 0.7)
    assert c_j == 3.0
    assert np.allclose(c_k, 4.0 * 3.0 / vols)
    assert tau_star == pytest.approx(0.7 * 0.25 / (4.0 * 4.0))


def test_bound_constants_rejects_bad_input():
    with pytest.raises(ValueError):
        bound_constants(np.ones(2), np.array([0.0, 1.0]), np.ones(2), 1.0)
    with pytest.raises(ValueError):
        bound_constants(np.ones(2), np.ones(2), np.ones(2), 0.0)


def test_positivity_with_positive_initial_data():
    # homogeneous boundary data, no sources, strictly positive start:
    # the exponentially fitted scheme keeps interior values positive
    mesh = build_box_mesh(4, *BOX)
    rng = np.random.default_rng(1)
    vals = rng.uniform(0.5, 1.5, (2, mesh.n_nodes))

    def init1(pts):
        return vals[0]

    def init2(pts):
        return vals[1]

    tc = zero_config(T=0.02, tau=1e-3, initial_p1=init1, initial_p2=init2)
    result = run_transient(mesh, scheme_config("eafe"), tc)
    interior = ~mesh.boundary
    assert all(d.min_p1 > 0.0 and d.min_p2 > 0.0 for d in result.diagnostics)
    assert result.state.p1[interior].min() > 0.0
    # G = 0 throughout: reported critical step is infinite
    assert all(d.tau_star == float("inf") for d in result.diagnostics)


def test_write_history_format():
    mesh = build_box_mesh(2, *BOX)
    tau = 0.01
    result = run_transient(
        mesh, scheme_config("eafe"), transient_problem(T=0.03, tau=tau)
    )
    buf = io.StringIO()
    write_history(result, buf, config_hash="abc123")
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "step,t,gummel_iterations,alpha_bar,min_p1,min_p2,C_J,tau_star,mmatrix_ok"
    assert len(lines) == 1 + 3 + 1
    assert lines[-1] == "# config-hash abc123"
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(tau)
    assert first[8] in ("0", "1")


def test_determinism_across_runs():
    mesh = build_box_mesh(3, *BOX)
    tc = transient_problem(T=0.02, tau=0.01)
    r1 = run_transient(mesh, scheme_config("supg"), tc)
    r2 = run_transient(mesh, scheme_config("supg"), tc)
    assert np.array_equal(r1.state.p1, r2.state.p1)
    assert np.array_equal(r1.state.phi, r2.state.phi)
    for a, b in zip(r1.reports, r2.reports):
        assert np.array_equal(a.ratios, b.ratios)
