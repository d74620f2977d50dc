import math

import mpmath
import numpy as np
import pytest

import oracles
from pnpfem.assembly import (
    SchemeConfig,
    apply_dirichlet_rows,
    assemble_convection,
    assemble_load,
    assemble_np,
    assemble_stiffness,
    bernoulli,
    edge_harmonic_average,
    element_integrals,
    lumped_volumes,
    stab_source_vector,
)
from pnpfem.linalg import SparseMatrix
from pnpfem.mesh import BoxMesh, build_box_mesh
from pnpfem.quadrature import TET4, grundmann_moeller, rule_for_order


def np_cfg(scheme, c, supg_scale=1.0):
    """Scheme config whose first species has drift coefficient c."""
    return SchemeConfig(scheme=scheme, drift=(c, -c), supg_scale=supg_scale)


def reference_tet_mesh(h=1.0):
    nodes = np.array([[0, 0, 0], [h, 0, 0], [0, h, 0], [0, 0, h]], dtype=float)
    return BoxMesh.from_cells(nodes, [[0, 1, 2, 3]])


# ---------------------------------------------------------------- quadrature

def _monomial_exact(a, b, c):
    # integral of x^a y^b z^c over the reference tet
    return (
        math.factorial(a) * math.factorial(b) * math.factorial(c)
        / math.factorial(a + b + c + 3)
    )


@pytest.mark.parametrize("rule,degree", [(TET4, 2), (grundmann_moeller(2), 5),
                                         (grundmann_moeller(4), 9)])
def test_quadrature_exactness(rule, degree):
    pts, wts = rule
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    phys = pts @ verts
    vol = 1.0 / 6.0
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            for c in range(degree + 1 - a - b):
                approx = vol * float(
                    wts @ (phys[:, 0] ** a * phys[:, 1] ** b * phys[:, 2] ** c)
                )
                assert approx == pytest.approx(_monomial_exact(a, b, c), abs=2e-15)


def test_rule_for_order_monotone():
    assert rule_for_order(2) is TET4
    assert rule_for_order(8)[0].shape[0] == grundmann_moeller(4)[0].shape[0]


# ----------------------------------------------------------------- stiffness

def test_stiffness_row_sums_zero_and_symmetric():
    mesh = build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3)
    a = assemble_stiffness(mesh).to_dense()
    assert np.abs(a.sum(axis=1)).max() < 1e-14
    assert np.abs(a - a.T).max() == 0.0


def test_stiffness_dirichlet_identity_rows():
    mesh = build_box_mesh(2)
    a = apply_dirichlet_rows(assemble_stiffness(mesh), mesh.boundary).to_dense()
    for k in np.flatnonzero(mesh.boundary):
        row = a[k].copy()
        assert row[k] == 1.0
        row[k] = 0.0
        assert np.all(row == 0.0)


def test_dirichlet_rows_need_stored_diagonal():
    # row 1 stores only its off-diagonal entry, so it cannot become an identity row
    a = SparseMatrix(2, [0, 2, 3], [0, 1, 0], [2.0, -1.0, -1.0])
    with pytest.raises(ValueError, match="row 1"):
        apply_dirichlet_rows(a, np.array([False, True]))
    fixed = apply_dirichlet_rows(a, np.array([True, False]))
    assert np.array_equal(fixed.to_dense(), [[1.0, 0.0], [-1.0, 0.0]])


def test_stiffness_matches_oracle():
    mesh = build_box_mesh(2)
    a = assemble_stiffness(mesh).to_dense()
    assert np.abs(a - oracles.oracle_stiffness(mesh)).max() < 1e-13


# ---------------------------------------------------------------------- mass

def test_lumped_mass_totals():
    mesh = build_box_mesh(2, (0, 0, 0), (1, 2, 1))
    m = lumped_volumes(mesh) / 4.0
    # sum of support volumes is 4x the box volume; diagonal carries /4
    assert m.sum() == pytest.approx(2.0, rel=1e-13)
    assert (m > 0).all()


def test_lumped_mass_main_diagonal_node():
    # h=1 cube: the two main-diagonal corners belong to all six tets
    mesh = build_box_mesh(1)
    m = lumped_volumes(mesh) / 4.0
    full = [k for k in range(8) if m[k] == pytest.approx(0.25, rel=1e-13)]
    assert len(full) == 2


def test_lumped_mass_single_tet():
    mesh = reference_tet_mesh(2.0)
    m = lumped_volumes(mesh) / 4.0
    vol = mesh.geometry.volumes[0]
    assert np.allclose(m, vol / 4.0, rtol=1e-14)


def test_lumped_mass_matches_oracle():
    mesh = build_box_mesh(3, (0, 0, 0), (1, 1, 2))
    assert np.abs(
        lumped_volumes(mesh) / 4.0 - oracles.oracle_lumped_mass(mesh)
    ).max() < 1e-13


# ---------------------------------------------------------------- convection

def test_convection_zero_potential():
    mesh = build_box_mesh(2)
    c = assemble_convection(mesh, np.zeros(mesh.n_nodes))
    assert np.abs(c.data).max() == 0.0


def test_convection_column_sums_zero():
    mesh = build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3)
    rng = np.random.default_rng(0)
    phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
    c = assemble_convection(mesh, phi)
    assert np.abs(c.column_sums()).max() < 1e-15


def test_convection_single_tet_linear_potential():
    mesh = reference_tet_mesh()
    phi = mesh.nodes[:, 0].copy()  # slope one in x
    c = assemble_convection(mesh, phi).to_dense()
    assert np.abs(c - oracles.oracle_convection(mesh, phi)).max() < 1e-13


def test_convection_dimension_mismatch():
    mesh = build_box_mesh(1)
    with pytest.raises(ValueError):
        assemble_convection(mesh, np.zeros(5))


# --------------------------------------------------------------------- loads

def test_load_constant_gives_lumped_volumes():
    mesh = build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3)
    g = assemble_load(mesh, lambda pts, t: np.ones(len(pts)), 0.0)
    assert np.abs(g - lumped_volumes(mesh) / 4.0).max() < 1e-14


def test_load_zero():
    mesh = build_box_mesh(1)
    g = assemble_load(mesh, lambda pts, t: np.zeros(len(pts)), 0.0)
    assert np.all(g == 0.0)


def test_load_linear_on_reference_tet():
    mesh = reference_tet_mesh()
    g = assemble_load(mesh, lambda pts, t: pts[:, 0], 0.0)
    # closed forms: int_K x lambda_k = vol/20 for the two vertices off the
    # x-axis, vol/10 for the vertex at x=1, and vol/20 for the origin vertex
    vol = 1.0 / 6.0
    expect = np.array([vol / 20.0, vol / 10.0, vol / 20.0, vol / 20.0])
    assert np.abs(g - expect).max() < 1e-12


def test_load_matches_oracle_high_order():
    mesh = build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3)

    def g(pts, t):
        return np.sin(pts[:, 0] + 2 * pts[:, 1]) * np.cos(pts[:, 2] - t)

    ours = assemble_load(mesh, g, 0.3, order=8)
    # transcendental integrand: both rules truncate, agreement ~ rule error
    assert np.abs(ours - oracles.oracle_load(mesh, g, 0.3)).max() < 1e-9


def test_element_integrals_sum_to_domain_integral():
    mesh = build_box_mesh(2, (0, 0, 0), (1, 1, 1))
    vals = element_integrals(mesh, lambda pts, t: np.ones(len(pts)), 0.0)
    assert vals.sum() == pytest.approx(1.0, rel=1e-13)
    assert np.abs(vals - mesh.geometry.volumes).max() < 1e-15


# ----------------------------------------------------------- bernoulli & co.

def test_bernoulli_values():
    assert bernoulli(0.0) == 1.0
    assert bernoulli(1.0) == pytest.approx(1.0 / (np.e - 1.0), rel=1e-14)


def test_bernoulli_against_mpmath():
    mpmath.mp.dps = 50
    for t in [-700.0, -50.0, -1.0, -1e-3, -1e-8, 1e-12, 1e-5, 1e-3, 0.5, 30.0, 500.0]:
        exact = float(mpmath.mpf(t) / mpmath.expm1(mpmath.mpf(t)))
        assert bernoulli(t) == pytest.approx(exact, rel=2e-14), t


def test_bernoulli_series_branch_accuracy():
    mpmath.mp.dps = 50
    for t in np.linspace(-1e-3, 1e-3, 41):
        if t == 0.0:
            continue
        exact = float(mpmath.mpf(t) / mpmath.expm1(mpmath.mpf(t)))
        assert abs(bernoulli(float(t)) - exact) <= 1e-14 * abs(exact)


def test_bernoulli_identity():
    for t in (1e-8, 1.0, 50.0):
        assert bernoulli(-t) - bernoulli(t) == pytest.approx(t, rel=1e-12)


def test_bernoulli_identity_sweep():
    ts = np.logspace(-10, np.log10(50.0), 200)
    lhs = bernoulli(-ts) - bernoulli(ts)
    assert np.abs(lhs - ts).max() <= 1e-12 * ts.max()
    assert (np.abs(lhs - ts) <= 1e-12 * np.maximum(ts, 1.0)).all()


def test_bernoulli_monotone_positive_overflow_safe():
    ts = np.array([-800.0, -100.0, -1.0, 0.0, 1.0, 100.0, 690.0])
    vals = bernoulli(ts)
    assert (np.diff(vals) < 0).all()
    assert (vals > 0.0).all()
    assert np.isfinite(bernoulli(1e6))


def test_harmonic_average_constant_exponent():
    assert edge_harmonic_average(0.0, 0.0) == 1.0
    c = -1.3
    assert edge_harmonic_average(c, c) == pytest.approx(np.exp(-c), rel=1e-14)


def test_harmonic_average_against_quadrature():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = rng.uniform(-2.0, 2.0, 2)
        assert edge_harmonic_average(a, b) == pytest.approx(
            oracles.oracle_harmonic_average(a, b), rel=1e-12
        )
    assert edge_harmonic_average(0.0, 1.0) == pytest.approx(
        oracles.oracle_harmonic_average(0.0, 1.0), rel=1e-12
    )


def test_harmonic_average_symmetry_and_difference_identity():
    rng = np.random.default_rng(2)
    a = rng.uniform(-3.0, 3.0, 50)
    b = rng.uniform(-3.0, 3.0, 50)
    av1 = edge_harmonic_average(a, b)
    av2 = edge_harmonic_average(b, a)
    assert np.abs(av1 - av2).max() < 1e-13 * np.abs(av1).max()
    lhs = av1 * np.exp(b) - av1 * np.exp(a)
    assert np.abs(lhs - (b - a)).max() < 1e-12 * np.abs(b - a).max()


# ----------------------------------------------------------------- np: plain

def test_np_fem_zero_potential_is_mass_plus_stiffness():
    mesh = build_box_mesh(2)
    tau = 0.01
    sys_ = assemble_np(
        mesh, np.zeros(mesh.n_nodes), np_cfg("fem", 1.0), 0, tau, apply_dirichlet=False
    )
    expect = np.diag(lumped_volumes(mesh) / 4.0) + tau * assemble_stiffness(
        mesh
    ).to_dense()
    assert np.abs(sys_.matrix.to_dense() - expect).max() == 0.0


def test_np_fem_small_tau_limit():
    mesh = build_box_mesh(1)
    tau = 1e-300
    sys_ = assemble_np(mesh, np.zeros(8), np_cfg("fem", 1.0), 0, tau, apply_dirichlet=False)
    m = lumped_volumes(mesh) / 4.0
    off = sys_.matrix.to_dense() - np.diag(np.diag(sys_.matrix.to_dense()))
    assert np.abs(off).max() < 1e-250
    assert np.abs(np.diag(sys_.matrix.to_dense()) - m).max() < 1e-250


def test_np_fem_rejects_bad_tau():
    mesh = build_box_mesh(1)
    with pytest.raises(ValueError):
        assemble_np(mesh, np.zeros(8), np_cfg("fem", 1.0), 0, 0.0)


# ----------------------------------------------------------------- np: supg

def test_supg_zero_potential_equals_fem():
    mesh = build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3)
    tau = 0.01
    fem = assemble_np(mesh, np.zeros(mesh.n_nodes), np_cfg("fem", 0.179), 0, tau)
    supg = assemble_np(mesh, np.zeros(mesh.n_nodes), np_cfg("supg", 0.179), 0, tau)
    assert np.array_equal(fem.matrix.data, supg.matrix.data)
    assert np.abs(supg.stab_matrix.data).max() == 0.0


def test_supg_parameter_branch_continuity():
    # at peclet exactly one both formulas give tau_tilde*h^2/4
    mesh = reference_tet_mesh()
    h_k = mesh.geometry.diameters[0]
    c = 1.0
    speed = 2.0 / h_k  # makes peclet == 1
    tau_tilde = 0.7
    upwind = tau_tilde * h_k / (2.0 * speed)
    diffusive = tau_tilde * h_k * h_k / 4.0
    assert upwind == pytest.approx(diffusive, rel=1e-14)


def test_supg_stab_matches_oracle_two_tets():
    nodes = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float
    )
    mesh = BoxMesh.from_cells(nodes, [[0, 1, 2, 3], [1, 2, 3, 4]])
    rng = np.random.default_rng(4)
    phi = rng.uniform(-2.0, 2.0, 5)  # large slopes: exercises the upwind branch
    tau, tt, c = 0.05, 1.3, 0.179
    ours = assemble_np(mesh, phi, np_cfg("supg", c, tt), 0, tau, apply_dirichlet=False)
    a_stream, s_time, node_w = oracles.oracle_supg_parts(mesh, phi, c, tt)
    fem = assemble_np(mesh, phi, np_cfg("fem", c), 0, tau, apply_dirichlet=False)
    expect = fem.matrix.to_dense() + tau * a_stream + s_time
    assert np.abs(ours.matrix.to_dense() - expect).max() < 1e-12
    assert np.abs(ours.stab_matrix.to_dense() - s_time).max() < 1e-12
    assert np.abs(ours.stab_grad_weights - node_w).max() < 1e-12


def test_supg_source_vector_scatter():
    mesh = build_box_mesh(1)
    rng = np.random.default_rng(6)
    phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
    sys_ = assemble_np(mesh, phi, np_cfg("supg", 1.0), 0, 0.1)
    elem = rng.uniform(0.0, 1.0, mesh.n_tets)
    vec = stab_source_vector(mesh, sys_, elem)
    expect = np.zeros(mesh.n_nodes)
    for k, tet in enumerate(mesh.tets):
        for i in range(4):
            expect[tet[i]] += sys_.stab_grad_weights[k, i] * elem[k]
    assert np.abs(vec - expect).max() < 1e-15


# ----------------------------------------------------------------- np: eafe

def test_eafe_zero_potential_reduces_to_stiffness():
    mesh = build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3)
    tau = 0.02
    sys_ = assemble_np(
        mesh, np.zeros(mesh.n_nodes), np_cfg("eafe", 0.179), 0, tau, apply_dirichlet=False
    )
    expect = np.diag(lumped_volumes(mesh) / 4.0) + tau * assemble_stiffness(
        mesh
    ).to_dense()
    assert np.abs(sys_.matrix.to_dense() - expect).max() < 1e-13


def test_eafe_transport_column_sums_zero():
    mesh = build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3)
    rng = np.random.default_rng(7)
    phi = rng.uniform(-1.5, 1.5, mesh.n_nodes)
    tau = 0.01
    sys_ = assemble_np(mesh, phi, np_cfg("eafe", 0.7), 0, tau, apply_dirichlet=False)
    transport_cols = (
        sys_.matrix.column_sums() - lumped_volumes(mesh) / 4.0
    ) / tau
    assert np.abs(transport_cols).max() < 1e-12


def test_eafe_entries_match_edge_quadrature():
    nodes = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float
    )
    mesh = BoxMesh.from_cells(nodes, [[0, 1, 2, 3], [1, 2, 3, 4]])
    rng = np.random.default_rng(8)
    phi = rng.uniform(-1.0, 1.0, 5)
    tau, c = 0.03, 0.179
    sys_ = assemble_np(mesh, phi, np_cfg("eafe", c), 0, tau, apply_dirichlet=False)
    expect = np.diag(oracles.oracle_lumped_mass(mesh)) + tau * oracles.oracle_eafe_transport(
        mesh, phi, c
    )
    assert np.abs(sys_.matrix.to_dense() - expect).max() < 1e-10


# --------------------------------------------------- oracle equivalence (all)

@pytest.mark.parametrize("scheme", ["fem", "supg", "eafe"])
def test_assemblers_match_oracle_random_potentials(scheme):
    mesh = build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3)  # 48 tets
    rng = np.random.default_rng(42)
    tau = 0.01
    cfg = SchemeConfig(scheme=scheme, drift=(0.179, -0.179), supg_scale=1.0)
    for trial in range(5):
        phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
        ours = assemble_np(mesh, phi, cfg, 0, tau)
        expect = oracles.oracle_np_matrix(mesh, phi, 0.179, tau, scheme)
        assert np.abs(ours.matrix.to_dense() - expect).max() < 1e-10


def test_dispatcher_selects_scheme():
    mesh = build_box_mesh(2)
    rng = np.random.default_rng(9)
    phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
    tau = 0.1
    cfg_fem = SchemeConfig(scheme="fem")
    cfg_eafe = SchemeConfig(scheme="eafe")
    a = assemble_np(mesh, phi, cfg_fem, 0, tau, apply_dirichlet=False).matrix.to_dense()
    b = assemble_np(mesh, phi, cfg_eafe, 0, tau, apply_dirichlet=False).matrix.to_dense()
    assert np.abs(a - b).max() > 1e-6  # genuinely different operators


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(scheme="upwind")
    with pytest.raises(ValueError):
        SchemeConfig(supg_scale=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(drift=(np.inf, 1.0))
