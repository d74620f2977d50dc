import numpy as np
import pytest

import oracles
from pnpfem import assembly, manufactured
from pnpfem.manufactured import (
    C_DRIFT,
    error_norms,
    exact_eval,
    scheme_config,
    source_terms,
    transient_problem,
)
from pnpfem.mesh import BoxMesh, DegenerateTetError, build_box_mesh

BOX = ((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))


def test_exact_values():
    origin = np.zeros(3)
    assert exact_eval("u", origin, 0.0)[0] == 0.0
    assert exact_eval("u", origin, 0.25)[0] == pytest.approx(1.0 - np.exp(-0.25), rel=1e-14)
    # the cosine factor vanishes on the boundary faces
    val = exact_eval("p", np.array([0.5, 0.123, -0.31]), 1.1)[0]
    assert val == pytest.approx(np.sin(1.1) * 3.0 * np.pi**2, rel=1e-13)


def test_exact_batch_shapes():
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, (7, 3))
    val, grad, dt = exact_eval("n", pts, 0.4)
    assert val.shape == (7,) and grad.shape == (7, 3) and dt.shape == (7,)


def test_rejects_unknown_field():
    with pytest.raises(ValueError):
        exact_eval("q", np.zeros(3), 0.0)


def test_sources_at_zero_time():
    pts = np.random.default_rng(1).uniform(-0.5, 0.5, (10, 3))
    f1, f2, f3 = source_terms(pts, 0.0)
    assert np.abs(f1).max() == 0.0
    f2_origin = source_terms(np.zeros(3), 0.0)[1]
    assert f2_origin == pytest.approx(4.5 * np.pi**2, rel=1e-13)


def test_pde_residual_finite_differences():
    rng = np.random.default_rng(42)
    h = 1e-4
    pts = rng.uniform(-0.5 + 2 * h, 0.5 - 2 * h, (1000, 3))
    ts = rng.uniform(0.01, 1.0, 1000)
    worst = np.zeros(3)
    eye = np.eye(3)
    for x, t in zip(pts, ts):
        lap = {}
        for field in ("u", "p", "n"):
            s = 0.0
            for d in range(3):
                s += (
                    exact_eval(field, x + h * eye[d], t)[0]
                    - 2.0 * exact_eval(field, x, t)[0]
                    + exact_eval(field, x - h * eye[d], t)[0]
                ) / h**2
            lap[field] = s
        u, gu, _ = exact_eval("u", x, t)
        p, gp, dp = exact_eval("p", x, t)
        n, gn, dn = exact_eval("n", x, t)
        f1, f2, f3 = source_terms(x, t)
        r1 = -lap["u"] - (p - n) - f1
        r2 = dp - (lap["p"] + C_DRIFT * (gp @ gu + p * lap["u"])) - f2
        r3 = dn - (lap["n"] - C_DRIFT * (gn @ gu + n * lap["u"])) - f3
        worst = np.maximum(worst, np.abs([r1, r2, r3]))
    assert worst.max() <= 1e-5


def test_boundary_traces_match_fields():
    mesh = build_box_mesh(3, *BOX)
    tc = transient_problem(T=0.25, tau=0.01)
    pts = mesh.nodes[mesh.boundary]
    for values, field in zip(tc.boundary(pts)(0.37), ("u", "p", "n")):
        assert np.array_equal(values, exact_eval(field, pts, 0.37)[0])


def test_bound_data_equals_pointwise_reference():
    # the staged data is the pointwise reference, bit for bit, at every level
    mesh = build_box_mesh(3, *BOX)
    tau = 0.01
    tc = transient_problem(T=0.25, tau=tau)
    qpts = assembly.quadrature_points(mesh)
    bpts = mesh.nodes[mesh.boundary]
    boundary_at = tc.boundary(bpts)
    for t in (0.0, tau, 0.37):
        for staged, reference in zip(oracles.sampled_sources(tc.sources, qpts, t),
                                     source_terms(qpts, t)):
            assert np.array_equal(staged, reference)
        for staged, field in zip(boundary_at(t), ("u", "p", "n")):
            assert np.array_equal(staged, exact_eval(field, bpts, t)[0])


@pytest.mark.parametrize("t", [0.0, 1.0 / 256, 0.37, 3.0])
def test_bound_sources_match_term_by_term_oracle(t):
    # the (3, 4) time factors on (1, c, c^2, |grad c|^2) against one array per
    # physical term; the fields' |grad c|^2 uses sin^2 = 1 - cos^2, so bits differ
    pts = np.random.default_rng(5).uniform(-0.5, 0.5, (2000, 3))
    ref = oracles.oracle_sources(pts, t)
    coefficients, fields = transient_problem(T=1.0, tau=0.1).sources
    assert coefficients(t).shape == (3, 4) and fields(pts).shape == (4, len(pts))
    got = coefficients(t) @ fields(pts)
    assert got.shape == (3, len(pts))
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_initial_concentrations_zero():
    tc = transient_problem(T=0.1, tau=0.01)
    pts = np.random.default_rng(2).uniform(-0.5, 0.5, (5, 3))
    p1, p2 = tc.initial(pts)
    assert np.all(p1 == 0.0)
    assert np.all(p2 == 0.0)


def test_error_norms_exact_on_linear_interpolant():
    mesh = build_box_mesh(2, *BOX)
    # a globally linear function is reproduced by P1: compare against itself
    dofs = 2.0 * mesh.nodes[:, 0] - 0.5 * mesh.nodes[:, 1] + 0.25

    # piggyback on the 'u' field machinery by measuring u_h = interpolant of u
    t = 0.25
    interp = exact_eval("u", mesh.nodes, t)[0]
    l2_self, h1_self = error_norms(mesh, interp, "u", t)
    assert l2_self > 0.0  # interpolant is not exact for the cosine field
    del dofs


def test_error_norms_zero_vector_gives_field_norm():
    mesh = build_box_mesh(3, *BOX)
    t = 0.4
    l2, h1 = error_norms(mesh, np.zeros(mesh.n_nodes), "u", t)
    exact = (1.0 - np.exp(-t)) * (1.0 / 2.0) ** 1.5
    assert l2 == pytest.approx(exact, rel=1e-6)
    # degree-8 quadrature oracle agreement
    l2_hi, h1_hi = error_norms(mesh, np.zeros(mesh.n_nodes), "u", t, order=9)
    assert l2 == pytest.approx(l2_hi, abs=1e-8)
    assert h1 == pytest.approx(h1_hi, abs=1e-8)


def test_error_norms_p1_reproduction():
    # dof vector equal to the interpolant of a linear field: build a linear
    # 'field' by hand through the quadrature machinery of oracles
    mesh = build_box_mesh(2, *BOX)
    lin = 0.3 * mesh.nodes[:, 0] + 0.7 * mesh.nodes[:, 2] - 0.1
    # verify with an independent computation: per-tet quadrature of
    # (u_h - linear)^2 where u_h == linear exactly
    from pnpfem.quadrature import rule_for_order

    pts, wts = rule_for_order(5)
    total = 0.0
    for k, tet in enumerate(mesh.tets):
        verts = mesh.nodes[tet]
        phys = pts @ verts
        exact_vals = 0.3 * phys[:, 0] + 0.7 * phys[:, 2] - 0.1
        uh = pts @ lin[tet]
        total += mesh.geometry.volumes[k] * float(wts @ (uh - exact_vals) ** 2)
    assert abs(total) < 1e-28


def test_error_norms_interpolation_rate():
    t = 0.25
    errs = []
    for n in (4, 8):
        mesh = build_box_mesh(n, *BOX)
        interp = exact_eval("u", mesh.nodes, t)[0]
        errs.append(error_norms(mesh, interp, "u", t)[0])
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_error_norms_blocks_add_up_to_one_pass(monkeypatch):
    # 7 does not divide the 6 * 3^3 = 162 elements, so the last block is short
    mesh = build_box_mesh(3, *BOX)
    dofs = np.random.default_rng(4).uniform(-1.0, 1.0, mesh.n_nodes)
    for field in ("u", "p", "n"):
        monkeypatch.setattr(manufactured, "_BLOCK", mesh.n_tets)
        whole = error_norms(mesh, dofs, field, 0.3)
        monkeypatch.setattr(manufactured, "_BLOCK", 7)
        assert error_norms(mesh, dofs, field, 0.3) == pytest.approx(whole, rel=1e-13, abs=0.0)


def test_error_norms_per_block_gradients_match_the_stored_gradients():
    # each block computes its own gradients; the sums are those of the mesh-wide gradients
    for mesh in (build_box_mesh(8, *BOX), oracles.jittered_box()):
        dofs = np.random.default_rng(5).uniform(-1.0, 1.0, mesh.n_nodes)
        for field in ("u", "p", "n"):
            expect = oracles.stored_gradient_error_norms(mesh, dofs, field, 0.3)
            assert error_norms(mesh, dofs, field, 0.3) == expect


def test_error_norms_rejects_an_inverted_tet():
    nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    mesh = BoxMesh.from_cells(nodes, [[0, 1, 2, 3], [0, 2, 1, 3]])
    with pytest.raises(DegenerateTetError, match="tet 1 has nonpositive volume"):
        error_norms(mesh, np.zeros(4), "u", 0.1)


def test_error_norms_dimension_check():
    mesh = build_box_mesh(2, *BOX)
    with pytest.raises(ValueError):
        error_norms(mesh, np.zeros(5), "u", 0.1)


def test_scheme_config_benchmark_coefficients():
    cfg = scheme_config("eafe")
    assert cfg.scheme == "eafe"
    assert cfg.charges == (1.0, -1.0)
    assert cfg.drift == (C_DRIFT, -C_DRIFT)


def test_sources_match_oracle_loads():
    # assembled source loads approach the quadrature oracle as the rule
    # order grows (the integrand is oscillatory, so no rule is exact)
    mesh = build_box_mesh(2, *BOX)
    from pnpfem.assembly import assemble_load, quadrature_points

    def f2(pts, t):
        return source_terms(pts, t)[1]

    def load(order):
        return assemble_load(mesh, f2(quadrature_points(mesh, order), 0.2), order)

    ref = oracles.oracle_load(mesh, f2, 0.2, q=10)
    gap8 = np.abs(load(8) - ref).max()
    gap13 = np.abs(load(13) - ref).max()
    gap17 = np.abs(load(17) - ref).max()
    assert gap8 < 2e-5
    assert gap13 < 1e-7 < gap8
    assert gap17 < 1e-9
