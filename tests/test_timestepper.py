import numpy as np
import pytest

from oracles import jittered_box, sampled_sources
from pnpfem import assembly, gummel, timestepper
from pnpfem.linalg import NonConvergenceError, spmv
from pnpfem.manufactured import scheme_config, source_terms, transient_problem
from pnpfem.mesh import build_box_mesh
from pnpfem.timestepper import (
    TransientAbortError,
    TransientConfig,
    bound_constants,
    run_transient,
    write_history,
)

BOX = ((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))


def zero_data(pts):
    return lambda t: np.zeros((3, len(pts)))


def zero_init(pts):
    return np.zeros((2, len(pts)))


NO_SOURCES = (lambda t: np.zeros((3, 1)), lambda pts: np.zeros((1, len(pts))))


def zero_config(T, tau, **kw):
    kwargs = dict(T=T, tau=tau, initial=zero_init, boundary=zero_data, sources=NO_SOURCES)
    kwargs.update(kw)
    return TransientConfig(**kwargs)


def test_config_validation():
    with pytest.raises(ValueError):
        zero_config(T=0.1, tau=0.2)
    with pytest.raises(ValueError):
        zero_config(T=0.1, tau=0.0)
    assert zero_config(T=0.1, tau=0.024).n_steps == 5


@pytest.mark.parametrize("scheme", ["fem", "supg"])
def test_data_evaluated_once_per_time_level(monkeypatch, scheme):
    # the boundary binder once per run, to the boundary nodes, and its bound
    # function once at t = 0 and once per step; the source coefficients once per
    # level and the source fields once per run, block by block, at the
    # quadrature points (patched blocks of 7 elements: 7 blocks of 48 tets)
    monkeypatch.setattr(assembly, "_BLOCK", 7)
    mesh = build_box_mesh(2, *BOX)
    tc = transient_problem(T=0.03, tau=0.01)
    coefficients, fields = tc.sources
    binds, calls, field_points, coefficient_times = [], [], [], []

    def bind(pts):
        binds.append(pts)
        at = transient_problem(T=0.03, tau=0.01).boundary(pts)

        def bound(t):
            calls.append(t)
            return at(t)
        return bound

    def counted_coefficients(t):
        coefficient_times.append(t)
        return coefficients(t)

    def counted_fields(pts):
        field_points.append(pts)
        return fields(pts)

    tc.boundary, tc.sources = bind, (counted_coefficients, counted_fields)
    result = run_transient(mesh, scheme_config(scheme), tc)
    levels = [0.0] + result.times
    assert len(levels) == tc.n_steps + 1
    assert len(binds) == 1 and np.array_equal(binds[0], mesh.nodes[mesh.boundary])
    assert calls == levels and coefficient_times == levels
    assert [len(p) for p in field_points] == [7 * 4] * 6 + [6 * 4]
    assert np.array_equal(np.concatenate(field_points), assembly.quadrature_points(mesh))


def test_supg_step_integrates_previous_level_plus_tau_source(monkeypatch):
    # run_transient hands supg int_K (p^n_h + tau F) per element; with
    # int_K psi_j = vol_K / 4 the p^n part is vol_K / 4 * sum_j p^n_j
    mesh = build_box_mesh(3, *BOX)
    tau = 0.01
    vals = np.random.default_rng(5).uniform(0.5, 1.5, (2, mesh.n_nodes))
    tc = transient_problem(T=tau, tau=tau, initial=lambda pts: vals)
    problems = []

    def capture(problem, state, *args):
        problems.append(problem)
        return gummel.gummel_solve(problem, state, *args)

    monkeypatch.setattr(timestepper, "gummel_solve", capture)
    run_transient(mesh, scheme_config("supg"), tc)
    (problem,) = problems
    p_int = mesh.geometry.volumes / 4.0 * vals[:, mesh.tets].sum(-1)
    f = np.asarray(source_terms(assembly.quadrature_points(mesh), tau))
    expected = p_int + tau * assembly.element_integrals(mesh, f[1:])
    assert problem.p_tau_f_elem_int.shape == (2, mesh.n_tets)
    np.testing.assert_allclose(problem.p_tau_f_elem_int, expected, rtol=1e-13, atol=0.0)


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
    g = assembly.assemble_load(mesh, sampled_sources(tc.sources, assembly.quadrature_points(mesh),
                                                     tau)[1])
    m = assembly.lumped_volumes(mesh) / 4.0
    f = tau * g + m * p
    # construction is a pure sum of the two products, bit for bit
    assert np.array_equal(f, tau * g + m * p)
    assert np.abs(f - m * p - tau * g).max() < 1e-16


@pytest.mark.parametrize("scheme", ["fem", "supg", "eafe"])
def test_one_assembly_per_sweep_and_per_step(monkeypatch, scheme):
    # both species come from one call: one per sweep, one per step's diagnostics
    calls = []
    original = assembly.assemble_np

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(assembly, "assemble_np", counting)
    mesh = build_box_mesh(2, *BOX)
    result = run_transient(mesh, scheme_config(scheme), transient_problem(T=0.02, tau=0.01))
    assert len(result.reports) == len(result.diagnostics) == 2
    assert len(calls) == sum(r.iterations for r in result.reports) + len(result.reports)


def test_single_step_solves_np_system():
    # after one step the accepted concentration solves its own system
    mesh = build_box_mesh(3, *BOX)
    tau = 0.01
    scfg = scheme_config("eafe")
    tc = transient_problem(T=tau, tau=tau)
    result = run_transient(mesh, scfg, tc)
    state = result.state
    system = assembly.assemble_np(mesh, state.phi, scfg, tau)[0]
    g1 = assembly.assemble_load(mesh, sampled_sources(tc.sources, assembly.quadrature_points(mesh),
                                                      tau)[1])
    rhs = tau * g1  # previous concentrations are zero
    rhs[mesh.boundary] = tc.boundary(mesh.nodes[mesh.boundary])(tau)[1]
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
    a_bc = assembly.potential_system(mesh)[0]
    state = result.state
    m = assembly.lumped_volumes(mesh) / 4.0
    rhs = assembly.assemble_load(
        mesh, sampled_sources(tc.sources, assembly.quadrature_points(mesh), state.t)[0])
    rhs += scfg.charges[0] * m * state.p1 + scfg.charges[1] * m * state.p2
    rhs[mesh.boundary] = tc.boundary(mesh.nodes[mesh.boundary])(state.t)[0]
    res = np.linalg.norm(spmv(a_bc, state.phi) - rhs)
    assert res <= scfg.linear_tol * np.linalg.norm(rhs)


def test_benchmark_run_diagnostics_and_bounds():
    mesh = build_box_mesh(4, *BOX)
    tau = (1.0 / 4.0) ** 2
    result = run_transient(mesh, scheme_config("eafe"), transient_problem(T=0.25, tau=tau))
    assert len(result.reports) == 4
    assert all(r.converged for r in result.reports)
    # interior concentrations stay within a small undershoot of nonnegative
    for d in result.diagnostics:
        assert d.min_p1 >= -1e-8
        assert d.min_p2 >= -1e-8
        assert d.mmatrix_ok_p1 and d.mmatrix_ok_p2


def test_abort_carries_step_and_partial_history():
    mesh = build_box_mesh(3, *BOX)
    tc = transient_problem(T=0.02, tau=0.01, max_iter=1, eps=1e-30)
    with pytest.raises(TransientAbortError) as err:
        run_transient(mesh, scheme_config("fem"), tc)
    assert err.value.step == 0
    assert len(err.value.partial.reports) == 1
    assert not err.value.partial.reports[0].converged


def test_linear_failure_aborts_with_step_solve_and_cause():
    # 1e-17 relative is below rounding, so the first potential solve fails
    mesh = build_box_mesh(4, *BOX)
    scfg = scheme_config("fem", linear_tol=1e-17, linear_maxit=50)
    with pytest.raises(TransientAbortError) as err:
        run_transient(mesh, scfg, transient_problem(T=0.25, tau=1.0 / 16))
    assert err.value.step == 0
    assert "step 0" in str(err.value)
    assert "gummel sweep 1: potential solve" in str(err.value)
    assert err.value.partial.reports == []
    cause = err.value.__cause__
    assert isinstance(cause, NonConvergenceError)
    assert cause.iterations == 50 and cause.residual > 0.0


def test_initial_potential_failure_aborts_at_step_0():
    # u = 1 on the boundary at t = 0 and a target below rounding: the t = 0
    # potential solve fails before any step starts
    mesh = build_box_mesh(4, *BOX)
    scfg = scheme_config("fem", linear_tol=1e-17, linear_maxit=50)

    def unit_potential(pts):
        out = np.zeros((3, len(pts)))
        out[0] = 1.0
        return lambda t: out

    tc = zero_config(T=0.25, tau=1.0 / 16, boundary=unit_potential)
    with pytest.raises(TransientAbortError) as err:
        run_transient(mesh, scfg, tc)
    assert err.value.step == 0
    assert str(err.value).startswith("initial potential (t = 0): potential solve: cg:")
    partial = err.value.partial
    assert partial.reports == [] and partial.times == [] and partial.diagnostics == []
    cause = err.value.__cause__
    assert isinstance(cause, NonConvergenceError)
    assert cause.iterations == 50 and cause.residual > 0.0


def test_refresh_failure_aborts_with_cause(monkeypatch):
    # the refresh after the first converged step is the second potential
    # solve that run_transient makes itself (the first is at t = 0)
    calls = []
    solve_potential = timestepper.solve_potential

    def failing(*args):
        calls.append(None)
        if len(calls) == 2:
            raise NonConvergenceError("potential solve: cg: forced failure", 1.0, 3)
        return solve_potential(*args)

    monkeypatch.setattr(timestepper, "solve_potential", failing)
    mesh = build_box_mesh(2, *BOX)
    with pytest.raises(TransientAbortError) as err:
        run_transient(mesh, scheme_config("fem"), transient_problem(T=0.03, tau=0.01))
    assert err.value.step == 0
    assert str(err.value) == "step 0 (t = 0.01): potential solve: cg: forced failure"
    assert err.value.partial.reports == []
    assert (err.value.__cause__.residual, err.value.__cause__.iterations) == (1.0, 3)


def test_bicgstab_failure_aborts_the_run():
    # charges x100: in sweep 15 of the first step BiCGSTAB stagnates on the
    # eafe species 2 system; the failure is reported, not solved another way
    mesh = build_box_mesh(8, *BOX)
    scfg = scheme_config("eafe", charges=(100.0, -100.0))
    tc = transient_problem(T=0.25, tau=4.0 / 64, max_iter=200)
    with pytest.raises(TransientAbortError) as err:
        run_transient(mesh, scfg, tc)
    assert err.value.step == 0
    assert ": species 2 solve: bicgstab: stagnation" in str(err.value)
    assert err.value.partial.reports == []
    assert isinstance(err.value.__cause__, NonConvergenceError)
    # stopped by stagnation (iteration 31), not after linear_maxit iterations
    assert err.value.__cause__.iterations <= 50


def test_bicgstab_near_breakdown_stops_the_solve():
    # charges x100, fem: in sweep 7 of the first step r_hat . r and r_hat . v
    # fall to their rounding level; the solve stops there with a finite
    # residual instead of running on until the iterate blows up
    mesh = build_box_mesh(8, *BOX)
    scfg = scheme_config("fem", charges=(100.0, -100.0))
    tc = transient_problem(T=0.25, tau=4.0 / 64, max_iter=200)
    with pytest.raises(TransientAbortError) as err:
        run_transient(mesh, scfg, tc)
    assert err.value.step == 0
    assert ": species 1 solve: bicgstab: breakdown" in str(err.value)
    cause = err.value.__cause__
    assert isinstance(cause, NonConvergenceError)
    # stopped at iteration 31, not after 2,000+ iterations at a residual of 1e19 or more
    assert cause.iterations <= 100
    assert np.isfinite(cause.residual) and cause.residual < 1e6


@pytest.mark.parametrize("make", [lambda: build_box_mesh(3, *BOX), jittered_box],
                         ids=["grid", "jittered"])
@pytest.mark.parametrize("scheme", ["fem", "supg", "eafe"])
def test_every_solve_runs_on_the_read_only_potential_operator(make, scheme):
    mesh = make()
    matrix = assembly.potential_system(mesh)[0]
    assert not any(a.flags.writeable for a in (matrix.data, matrix.indptr, matrix.indices))
    result = run_transient(mesh, scheme_config(scheme), transient_problem(T=0.02, tau=0.01))
    assert [r.converged for r in result.reports] == [True, True]


def test_linear_failure_keeps_the_completed_steps(second_step_species_failure):
    mesh = build_box_mesh(2, *BOX)
    with pytest.raises(TransientAbortError) as err:
        run_transient(mesh, scheme_config("fem"), transient_problem(T=0.03, tau=0.01))
    assert err.value.step == 1
    assert "step 1" in str(err.value)
    assert "gummel sweep 1: species 1 solve: bicgstab: forced failure" in str(err.value)
    partial = err.value.partial
    assert len(partial.reports) == len(partial.times) == len(partial.diagnostics) == 1
    assert partial.reports[0].converged
    assert (err.value.__cause__.residual, err.value.__cause__.iterations) == (1.0, 7)


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

    tc = zero_config(T=0.02, tau=1e-3, initial=lambda pts: vals)
    result = run_transient(mesh, scheme_config("eafe"), tc)
    interior = ~mesh.boundary
    assert all(d.min_p1 > 0.0 and d.min_p2 > 0.0 for d in result.diagnostics)
    assert result.state.p1[interior].min() > 0.0
    # G = 0 throughout: reported critical step is infinite
    assert all(d.tau_star == float("inf") for d in result.diagnostics)


def test_write_history_format(tmp_path):
    mesh = build_box_mesh(2, *BOX)
    tau = 0.01
    result = run_transient(
        mesh, scheme_config("eafe"), transient_problem(T=0.03, tau=tau)
    )
    write_history(result, tmp_path / "history.csv", config_hash="abc123")
    lines = (tmp_path / "history.csv").read_text().strip().split("\n")
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


def test_every_potential_solve_verifies_the_mesh_potential_system(monkeypatch):
    mesh = build_box_mesh(3, *BOX)
    system = assembly.potential_system(mesh)
    matrices, solve = [], gummel.solve_spd

    def recording(a, *args, **kwargs):
        matrices.append(a)
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(gummel, "solve_spd", recording)
    tc = transient_problem(T=0.02, tau=0.01)
    reports = []
    for scheme in ("fem", "eafe"):
        reports += run_transient(mesh, scheme_config(scheme), tc).reports
    assert assembly.potential_system(mesh) is system
    # per run: the t = 0 solve, one per sweep and the refresh of every step
    assert len(matrices) == 2 + sum(r.iterations + 1 for r in reports)
    assert all(a is system[0] for a in matrices)
