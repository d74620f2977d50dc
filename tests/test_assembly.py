import math
import mmap
import tracemalloc

import mpmath
import numpy as np
import pytest

import oracles
from oracles import jittered_box, to_dense, unconstrained
from pnpfem import assembly
from pnpfem.assembly import (
    SchemeConfig,
    assemble_load,
    assemble_np,
    assemble_stiffness,
    bernoulli,
    element_integrals,
    integrate_fields,
    lumped_volumes,
    quadrature_points,
    stab_source_vector,
)
from pnpfem.linalg import solve_general, spmv
from pnpfem.manufactured import transient_problem
from pnpfem.mesh import LOCAL_EDGES, BoxMesh, DegenerateTetError, _mapped_zeros, build_box_mesh
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
    a = to_dense(assemble_stiffness(mesh))
    assert np.abs(a.sum(axis=1)).max() < 1e-14
    assert np.abs(a - a.T).max() == 0.0


def test_stiffness_dirichlet_identity_rows():
    mesh = build_box_mesh(2)
    a = to_dense(assembly.potential_system(mesh)[0])
    assert np.array_equal(a, oracles.dirichlet_rows(to_dense(assemble_stiffness(mesh)),
                                                    mesh.boundary))
    for k in np.flatnonzero(mesh.boundary):
        row = a[k].copy()
        assert row[k] == 1.0
        row[k] = 0.0
        assert np.all(row == 0.0)


def test_stiffness_matches_oracle():
    mesh = build_box_mesh(2)
    a = to_dense(assemble_stiffness(mesh))
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

def test_convection_single_tet_linear_potential():
    mesh = unconstrained(reference_tet_mesh())
    phi = mesh.nodes[:, 0].copy()  # slope one in x
    tau, c = 0.1, 0.7
    ours = assemble_np(mesh, phi, np_cfg("fem", c), tau)[0]
    expect = oracles.oracle_np_matrix(mesh, phi, c, tau, "fem")
    assert np.abs(to_dense(ours.matrix) - expect).max() < 1e-13


def test_convection_dimension_mismatch():
    mesh = build_box_mesh(1)
    for scheme in ("fem", "supg", "eafe"):
        with pytest.raises(ValueError, match="phi"):
            assemble_np(mesh, np.zeros(5), np_cfg(scheme, 1.0), 0.1)


# --------------------------------------------------------------------- loads

def test_load_constant_gives_lumped_volumes():
    mesh = build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3)
    g = assemble_load(mesh, np.ones(len(quadrature_points(mesh))))
    assert np.abs(g - lumped_volumes(mesh) / 4.0).max() < 1e-14


def test_load_zero():
    mesh = build_box_mesh(1)
    g = assemble_load(mesh, np.zeros(len(quadrature_points(mesh))))
    assert np.all(g == 0.0)


def test_load_linear_on_reference_tet():
    mesh = reference_tet_mesh()
    g = assemble_load(mesh, quadrature_points(mesh)[:, 0])
    # closed forms: int_K x lambda_k = vol/20 for the two vertices off the
    # x-axis, vol/10 for the vertex at x=1, and vol/20 for the origin vertex
    vol = 1.0 / 6.0
    expect = np.array([vol / 20.0, vol / 10.0, vol / 20.0, vol / 20.0])
    assert np.abs(g - expect).max() < 1e-12


def test_load_matches_oracle_high_order():
    mesh = build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3)

    def g(pts, t):
        return np.sin(pts[:, 0] + 2 * pts[:, 1]) * np.cos(pts[:, 2] - t)

    ours = assemble_load(mesh, g(quadrature_points(mesh, 8), 0.3), order=8)
    # transcendental integrand: both rules truncate, agreement ~ rule error
    assert np.abs(ours - oracles.oracle_load(mesh, g, 0.3)).max() < 1e-9


def test_element_integrals_sum_to_domain_integral():
    mesh = build_box_mesh(2, (0, 0, 0), (1, 1, 1))
    vals = element_integrals(mesh, np.ones(len(quadrature_points(mesh))))
    assert vals.sum() == pytest.approx(1.0, rel=1e-13)
    assert np.abs(vals - mesh.geometry.volumes).max() < 1e-15


@pytest.mark.parametrize("order", [2, 8])
def test_stacked_fields_integrate_as_single_fields(order):
    mesh = build_box_mesh(3, (-0.5,) * 3, (0.5,) * 3)
    pts = quadrature_points(mesh, order)
    assert pts.shape == (mesh.n_tets * rule_for_order(order)[1].size, 3)
    fields = np.stack((np.sin(3 * pts[:, 0]), pts[:, 1] * pts[:, 2], np.exp(pts[:, 2])))
    loads = assemble_load(mesh, fields, order)
    integrals = element_integrals(mesh, fields, order)
    assert loads.shape == (3, mesh.n_nodes)
    assert integrals.shape == (3, mesh.n_tets)
    for i in range(3):
        assert np.array_equal(loads[i], assemble_load(mesh, fields[i], order))
        assert np.array_equal(integrals[i], element_integrals(mesh, fields[i], order))


@pytest.mark.parametrize("block", [None, 7])
def test_integrated_fields_fold_the_sampled_loads(monkeypatch, block):
    # the source fields integrated once, weighted by a level's coefficients,
    # are the loads and supg element integrals of the sources sampled at that
    # level; 7 divides neither 162 nor the jittered box's elements
    if block is not None:
        monkeypatch.setattr(assembly, "_BLOCK", block)
    coefficients, fields = transient_problem(T=0.25, tau=0.01).sources
    for mesh in (build_box_mesh(3, (-0.5,) * 3, (0.5,) * 3), jittered_box()):
        field_loads, field_ints = integrate_fields(mesh, fields, per_element=True)
        assert integrate_fields(mesh, fields)[1] is None
        assert field_loads.shape == (4, mesh.n_nodes) and field_ints.shape == (4, mesh.n_tets)
        values = fields(quadrature_points(mesh))
        for t in (0.0, 0.1, 0.25):
            c = coefficients(t)
            for got, want in ((c @ field_loads, assemble_load(mesh, c @ values)),
                              (c[1:] @ field_ints, element_integrals(mesh, c[1:] @ values))):
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("make", [lambda: build_box_mesh(3), jittered_box],
                         ids=["kuhn", "jittered"])
@pytest.mark.parametrize("order", [2, 8, 17])
def test_quadrature_points_match_einsum_oracle(make, order):
    mesh = make()
    pts = quadrature_points(mesh, order)
    ref = oracles.einsum_quadrature_points(mesh, order)
    assert pts.shape == ref.shape
    assert np.abs(pts - ref).max() <= 1e-15


def test_sampled_values_must_match_the_quadrature_points():
    mesh = build_box_mesh(2)
    size = len(quadrature_points(mesh))
    for bad in (np.ones(size - 1), np.ones((3, size + 4)), np.ones((mesh.n_tets, 4)), 1.0):
        with pytest.raises(ValueError, match="M\\*Q"):
            assemble_load(mesh, bad)
        with pytest.raises(ValueError, match="M\\*Q"):
            element_integrals(mesh, bad)
    # the order-8 points do not fit the default degree-2 rule
    with pytest.raises(ValueError):
        assemble_load(mesh, np.ones(len(quadrature_points(mesh, 8))))


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


def test_bernoulli_matches_masked_form_bit_for_bit():
    # the whole-array quotient overwritten on the series and tail entries is the
    # former per-branch evaluation, at the cut points, next to them and beyond
    cuts = np.array([0.0, 1e-3, -1e-3, 700.0])
    ts = np.concatenate((cuts, np.nextafter(cuts, np.inf), np.nextafter(cuts, -np.inf),
                         np.linspace(-800.0, 800.0, 4001), np.geomspace(1e-10, 1e4, 400),
                         -np.geomspace(1e-10, 1e4, 400), [-1e6, 705.0, 710.0, 750.0, 1e6]))
    with np.errstate(all="raise"):
        got = bernoulli(ts)
        scalars = [bernoulli(t) for t in cuts]
    assert np.array_equal(got, oracles.masked_bernoulli(ts))
    assert bernoulli(ts.reshape(2, -1)).shape == (2, ts.size // 2)
    assert all(type(b) is float and b == oracles.masked_bernoulli(t) for b, t in zip(scalars, cuts))


# The eafe edge coefficient is the inverse mean of exp along the edge,
# (b - a) / (exp(b) - exp(a)) for endpoint exponents a != b, evaluated as
# exp(-a) * B(b - a) so that it stays finite as b approaches a.

def test_harmonic_average_constant_exponent():
    assert np.exp(-0.0) * bernoulli(0.0) == 1.0
    c = -1.3
    assert np.exp(-c) * bernoulli(c - c) == pytest.approx(np.exp(-c), rel=1e-14)


def test_harmonic_average_against_quadrature():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = rng.uniform(-2.0, 2.0, 2)
        assert np.exp(-a) * bernoulli(b - a) == pytest.approx(
            oracles.oracle_harmonic_average(a, b), rel=1e-12
        )
    assert np.exp(-0.0) * bernoulli(1.0) == pytest.approx(
        oracles.oracle_harmonic_average(0.0, 1.0), rel=1e-12
    )


def test_harmonic_average_symmetry_and_difference_identity():
    rng = np.random.default_rng(2)
    a = rng.uniform(-3.0, 3.0, 50)
    b = rng.uniform(-3.0, 3.0, 50)
    av1 = np.exp(-a) * bernoulli(b - a)
    av2 = np.exp(-b) * bernoulli(a - b)
    assert np.abs(av1 - av2).max() < 1e-13 * np.abs(av1).max()
    lhs = av1 * np.exp(b) - av1 * np.exp(a)
    assert np.abs(lhs - (b - a)).max() < 1e-12 * np.abs(b - a).max()


# ----------------------------------------------------------------- np: plain

def test_np_fem_zero_potential_is_mass_plus_stiffness():
    mesh = build_box_mesh(2)
    tau = 0.01
    sys_ = assemble_np(unconstrained(mesh), np.zeros(mesh.n_nodes), np_cfg("fem", 1.0), tau)[0]
    expect = np.diag(lumped_volumes(mesh) / 4.0) + tau * to_dense(assemble_stiffness(mesh))
    assert np.abs(to_dense(sys_.matrix) - expect).max() == 0.0


def test_np_fem_small_tau_limit():
    mesh = build_box_mesh(1)
    tau = 1e-300
    sys_ = assemble_np(unconstrained(mesh), np.zeros(8), np_cfg("fem", 1.0), tau)[0]
    m = lumped_volumes(mesh) / 4.0
    off = to_dense(sys_.matrix) - np.diag(np.diag(to_dense(sys_.matrix)))
    assert np.abs(off).max() < 1e-250
    assert np.abs(np.diag(to_dense(sys_.matrix)) - m).max() < 1e-250


def test_np_fem_rejects_bad_tau():
    mesh = build_box_mesh(1)
    with pytest.raises(ValueError):
        assemble_np(mesh, np.zeros(8), np_cfg("fem", 1.0), 0.0)


# ----------------------------------------------------------------- np: supg

def test_supg_zero_potential_equals_fem():
    mesh = build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3)
    tau = 0.01
    fem = assemble_np(mesh, np.zeros(mesh.n_nodes), np_cfg("fem", 0.179), tau)[0]
    supg = assemble_np(mesh, np.zeros(mesh.n_nodes), np_cfg("supg", 0.179), tau)[0]
    assert np.array_equal(fem.matrix.data, supg.matrix.data)
    assert np.abs(supg.stab_grad_weights).max() == 0.0


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


def supg_parameters(mesh, phi, slope, cfg):
    """c_K of each species read back from its weights -c c_K d_i at phi = x . slope.

    d_i = slope . grad(lambda_i) is known in closed form for a linear phi; each
    tet is read at its largest |d_i|.
    """
    d = oracles.element_major_geometry(mesh)[1] @ slope         # (M, 4)
    k, i = np.arange(mesh.n_tets), np.abs(d).argmax(axis=1)
    systems = assemble_np(mesh, phi, cfg, 0.02)
    return [-s.stab_grad_weights[k, i] / (c * d[k, i]) for c, s in zip(cfg.drift, systems)]


def test_supg_speed_of_a_constant_potential():
    # every element-edge difference is 0, so |grad phi_K| = 0 and c_K multiplies
    # only zeros: no 0/0, finite zero weights, and the fem matrices exactly
    mesh = jittered_box()
    phi = np.full(mesh.n_nodes, 0.3)
    with np.errstate(invalid="raise", divide="raise"):
        supg = assemble_np(mesh, phi, SchemeConfig(scheme="supg", drift=(0.7, -1.3)), 0.02)
    fem = assemble_np(mesh, phi, SchemeConfig(scheme="fem", drift=(0.7, -1.3)), 0.02)
    for s, f in zip(supg, fem):
        assert np.array_equal(s.stab_grad_weights, np.zeros((mesh.n_tets, 4)))
        assert np.array_equal(s.matrix.data, f.matrix.data)
    # c_K is the zero-speed value supg_scale h_K^2 / 4 wherever the cell Peclet
    # number is below 1; at slope 1e-9 it is about 1e-9 on every tet
    slope, cfg = 1e-9 * np.array([0.3, -1.1, 0.7]), np_cfg("supg", 0.7, supg_scale=1.7)
    expect = 1.7 * mesh.geometry.diameters ** 2 / 4.0
    for c_k in supg_parameters(mesh, mesh.nodes @ slope, slope, cfg):
        assert np.abs(c_k / expect - 1.0).max() <= 1e-14


def test_supg_speed_of_a_linear_potential():
    # at cell Peclet numbers above 1, c_K = supg_scale h_K / (2 |c| |grad phi_K|)
    mesh = jittered_box()
    slope = 1e3 * np.array([0.3, -1.1, 0.7])
    cfg = SchemeConfig(scheme="supg", drift=(0.7, -1.3), supg_scale=1.7)
    for c, c_k in zip(cfg.drift, supg_parameters(mesh, mesh.nodes @ slope, slope, cfg)):
        speed = 1.7 * mesh.geometry.diameters / (2.0 * abs(c) * c_k)
        assert np.abs(speed / np.linalg.norm(slope) - 1.0).max() <= 1e-14


def test_supg_speed_rounding_below_zero_is_clamped():
    # on this sliver, sum_e omega_e dphi_e^2 rounds to about -4e-9, below 0;
    # its square root must not make NaN weights
    nodes = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 1e-8]], dtype=float)
    mesh = BoxMesh.from_cells(nodes, [[0, 1, 2, 3]])
    phi = np.array([0.20571933980391938, 1.1127984351355256, 0.8151346032009692,
                    -0.09194449277585104])
    nu, mu = np.array(LOCAL_EDGES).T
    dphi = phi[nu] - phi[mu]
    assert (mesh.geometry.omega[0] * dphi) @ dphi < 0.0
    with np.errstate(invalid="raise", divide="raise"):
        systems = assemble_np(mesh, phi, np_cfg("supg", 0.7), 0.02)
    for s in systems:
        assert np.isfinite(s.stab_grad_weights).all() and np.isfinite(s.matrix.data).all()


def test_supg_stab_matches_oracle_two_tets():
    nodes = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float
    )
    mesh = BoxMesh.from_cells(nodes, [[0, 1, 2, 3], [1, 2, 3, 4]])
    rng = np.random.default_rng(4)
    phi = rng.uniform(-2.0, 2.0, 5)  # large slopes: exercises the upwind branch
    tau, tt, c = 0.05, 1.3, 0.179
    ours = assemble_np(unconstrained(mesh), phi, np_cfg("supg", c, tt), tau)[0]
    a_stream, s_time, node_w = oracles.oracle_supg_parts(mesh, phi, c, tt)
    fem = assemble_np(unconstrained(mesh), phi, np_cfg("fem", c), tau)[0]
    expect = to_dense(fem.matrix) + tau * a_stream + s_time
    assert np.abs(to_dense(ours.matrix) - expect).max() < 1e-12
    # the supg right-hand side: S_time p^n + tau sum_K node_w int_K F
    p_prev = rng.uniform(0.0, 2.0, 5)
    f_int = rng.uniform(-1.0, 1.0, mesh.n_tets)
    p_int = np.array([oracles.tet_frame(nodes[tet])[0] * p_prev[tet].mean() for tet in mesh.tets])
    expect = s_time @ p_prev
    np.add.at(expect, mesh.tets, tau * node_w * f_int[:, None])
    assert np.abs(stab_source_vector(mesh, ours, p_int + tau * f_int) - expect).max() < 1e-12


def test_supg_source_vector_scatter():
    mesh = build_box_mesh(1)
    rng = np.random.default_rng(6)
    phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
    sys_ = assemble_np(mesh, phi, np_cfg("supg", 1.0), 0.1)[0]
    elem = rng.uniform(0.0, 1.0, mesh.n_tets)
    vec = stab_source_vector(mesh, sys_, elem)
    _, _, node_w = oracles.oracle_supg_parts(mesh, phi, 1.0, 1.0)
    expect = np.zeros(mesh.n_nodes)
    for k, tet in enumerate(mesh.tets):
        for i in range(4):
            expect[tet[i]] += node_w[k, i] * elem[k]
    assert np.abs(vec - expect).max() < 1e-15


# ----------------------------------------------------------------- np: eafe

def test_eafe_zero_potential_reduces_to_stiffness():
    mesh = build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3)
    tau = 0.02
    sys_ = assemble_np(unconstrained(mesh), np.zeros(mesh.n_nodes), np_cfg("eafe", 0.179), tau)[0]
    expect = np.diag(lumped_volumes(mesh) / 4.0) + tau * to_dense(assemble_stiffness(mesh))
    assert np.abs(to_dense(sys_.matrix) - expect).max() < 1e-13


@pytest.mark.parametrize("scheme", ["eafe", "fem", "supg"])
def test_transport_column_sums_zero(scheme):
    # sum_i d_i = 0, so convection, streamline and time rows add nothing either;
    # the diagonal is built from this property, so check it on a jittered mesh,
    # for both species and for unequal |c| too
    for mesh in (build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3), jittered_box()):
        rng = np.random.default_rng(7)
        phi = rng.uniform(-1.5, 1.5, mesh.n_nodes)
        tau = 0.01
        for drift in ((0.7, -0.7), (0.7, -1.3)):
            cfg = SchemeConfig(scheme=scheme, drift=drift)
            for sys_ in assemble_np(unconstrained(mesh), phi, cfg, tau):
                transport_cols = (
                    to_dense(sys_.matrix).sum(axis=0) - lumped_volumes(mesh) / 4.0
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
    sys_ = assemble_np(unconstrained(mesh), phi, np_cfg("eafe", c), tau)[0]
    expect = np.diag(oracles.oracle_lumped_mass(mesh)) + tau * oracles.oracle_eafe_transport(
        mesh, phi, c
    )
    assert np.abs(to_dense(sys_.matrix) - expect).max() < 1e-10


@pytest.mark.parametrize("n, hi", [(2, (1.0,) * 3), (3, (1.0,) * 3), (5, (1.0,) * 3),
                                   (4, (1.0, 2.0, 3.0))])
def test_grid_solver_is_the_exact_interior_inverse(n, hi):
    mesh = build_box_mesh(n, (0.0,) * 3, hi)
    grid = assembly.potential_system(mesh)[1]
    h = np.array(hi) / n
    assert grid.shape == (n - 1,) * 3
    assert np.allclose(grid.coupling, h.prod() / h**2, rtol=1e-13, atol=0.0)
    inner = ~mesh.boundary
    block = to_dense(assemble_stiffness(mesh))[np.ix_(inner, inner)]
    r = np.random.default_rng(n).standard_normal(mesh.n_nodes)
    expect = np.linalg.solve(block, r[inner])
    assert np.linalg.norm(grid.solve(r) - expect) <= 1e-12 * np.linalg.norm(expect)


def graded_box(n=4):
    """Tensor grid with graded spacing: no constant-coefficient stencil."""
    base = build_box_mesh(n)
    return BoxMesh.from_cells(base.nodes**2, base.tets, base.boundary)


def renumbered_box(n=3):
    """Kuhn box with its nodes in a shuffled order."""
    base = build_box_mesh(n)
    perm = np.random.default_rng(1).permutation(base.n_nodes)   # new -> old
    old_to_new = np.argsort(perm)
    return BoxMesh.from_cells(base.nodes[perm], old_to_new[base.tets], base.boundary[perm])


def all_boundary_box(n=3):
    """Kuhn box whose every node is flagged as boundary (the from_cells default)."""
    base = build_box_mesh(n)
    return BoxMesh.from_cells(base.nodes, base.tets)


def rebuilt_box(n=4):
    """A Kuhn box rebuilt from its own arrays: the same mesh, but no recorded lattice."""
    box = build_box_mesh(n)
    return BoxMesh(box.nodes, box.tets, box.boundary)


@pytest.mark.parametrize(
    "make",
    [jittered_box, graded_box, renumbered_box, all_boundary_box, lambda: build_box_mesh(1),
     rebuilt_box],
    ids=["jittered", "graded", "renumbered", "all_boundary", "no_interior", "rebuilt"],
)
def test_grid_solver_declines_other_meshes(make):
    assert assembly.potential_system(make())[1] is None


def cube_fixed_at_x0():
    """``five_tet_cube`` with only its x = 0 face Dirichlet: fixed and free nodes mixed."""
    cube = oracles.five_tet_cube()
    return BoxMesh.from_cells(cube.nodes, cube.tets, cube.nodes[:, 0] == 0.0)


@pytest.mark.parametrize("make, on_grid",
                         [(lambda: build_box_mesh(3), True), (jittered_box, False),
                          (cube_fixed_at_x0, False)])
def test_potential_system_is_built_once_per_mesh(make, on_grid):
    mesh = make()
    stiffness = assemble_stiffness(mesh)
    matrix, grid = system = assembly.potential_system(mesh)
    assert assembly.potential_system(mesh) is system
    assert (grid is not None) == on_grid
    expect = oracles.dirichlet_rows(to_dense(stiffness), mesh.boundary)
    assert np.array_equal(to_dense(matrix), expect)
    # building it leaves the workspace stiffness untouched
    assert np.array_equal(assemble_stiffness(mesh).data, stiffness.data)


@pytest.mark.parametrize("make, nnz", [(lambda: build_box_mesh(8, (-0.5,) * 3, (0.5,) * 3), None),
                                       (lambda: build_box_mesh(16, (-0.5,) * 3, (0.5,) * 3),
                                        (32657, 66961)),
                                       (jittered_box, None)], ids=["kuhn8", "kuhn16", "jittered"])
def test_potential_operator_on_weighted_edges_keeps_the_full_pattern_bits(make, nnz):
    # the potential operator stores the diagonal and the edges of nonzero weight only, eafe's
    # pattern; its products and diagonal are those of the full-pattern stiffness, bit for bit
    mesh = make()
    matrix, ws = assembly.potential_system(mesh)[0], assembly._workspace(mesh)
    full = assemble_stiffness(mesh)
    full.data[mesh.boundary[full.rows()]] = 0.0
    full.data[ws.diag_slots[mesh.boundary]] = 1.0
    assert matrix.indptr is ws._edges.pattern.indptr          # eafe's pattern and padded-row
    assert matrix._derived is ws._edges.pattern._derived      # layout, not copies of them
    assert matrix.nnz == mesh.n_nodes + 2 * np.count_nonzero(ws.weight) < full.nnz
    if nnz is not None:
        assert (matrix.nnz, full.nnz) == nnz
    assert matrix.diagonal().tobytes() == full.diagonal().tobytes()
    rng = np.random.default_rng(mesh.n_nodes)
    for x in (rng.standard_normal(mesh.n_nodes), rng.uniform(-1.0, 1.0, mesh.n_nodes) * 1e6,
              np.where(mesh.boundary, 0.0, rng.uniform(0.0, 1.0, mesh.n_nodes))):
        assert spmv(matrix, x).tobytes() == spmv(full, x).tobytes()


def test_potential_operator_is_read_only():
    matrix = assembly.potential_system(build_box_mesh(3))[0]
    for name in ("data", "indptr", "indices"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(matrix, name)[0] = 0


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("scheme", ["fem", "eafe"])
def test_concentration_preconditioner_is_exact_at_zero_drift(n, scheme):
    mesh = build_box_mesh(n, (-0.5,) * 3, (0.5,) * 3)
    phi, cfg, tau, free = np.zeros(mesh.n_nodes), np_cfg(scheme, 0.179), 1.0 / n**2, ~mesh.boundary
    precond = assembly.concentration_preconditioner(mesh, phi, cfg, tau)
    rng = np.random.default_rng(n)
    r = np.where(free, rng.standard_normal(mesh.n_nodes), 0.0)
    b = rng.uniform(0.5, 1.5, mesh.n_nodes)
    for system in assemble_np(mesh, phi, cfg, tau):
        # M^-1 A is the identity on vectors that vanish on the Dirichlet rows
        assert np.allclose(precond(spmv(system.matrix, r)), r, rtol=0.0, atol=1e-12)
        res = solve_general(system.matrix, b, 1e-10, x0=np.where(free, 0.0, b), free=free,
                            precond=precond)
        assert res.iterations <= 1
        assert res.residual <= 1e-10 * np.linalg.norm(b[free])
    # the Dirichlet rows pass through
    assert np.array_equal(precond(b)[mesh.boundary], b[mesh.boundary])


@pytest.mark.parametrize("make", [jittered_box, oracles.five_tet_cube, cube_fixed_at_x0],
                         ids=["jittered", "cube5", "cube5_x0"])
def test_concentration_preconditioner_declines_meshes_off_a_grid(make):
    mesh = make()
    cfg = np_cfg("eafe", 0.179)
    assert assembly.concentration_preconditioner(mesh, np.zeros(mesh.n_nodes), cfg, 0.01) is None


def test_concentration_preconditioner_gate_is_the_edge_peclet_number():
    mesh = build_box_mesh(4)
    phi = 0.5 * mesh.nodes[:, 0]        # largest edge difference 1/8, along x and the diagonals
    for c, on in [(8.0, True), (8.0 * (1 + 1e-12), False)]:
        cfg = SchemeConfig(scheme="fem", drift=(0.1, -c))    # the larger |c| counts
        assert (assembly.concentration_preconditioner(mesh, phi, cfg, 0.01) is not None) == on


@pytest.mark.parametrize("scheme", ["fem", "supg", "eafe"])
def test_preconditioned_and_jacobi_solves_meet_the_dense_solution(scheme):
    mesh = build_box_mesh(5, (-0.5,) * 3, (0.5,) * 3)
    rng = np.random.default_rng(5)
    phi, cfg, tau = rng.uniform(-1.0, 1.0, mesh.n_nodes), np_cfg(scheme, 0.179), 0.04
    precond = assembly.concentration_preconditioner(mesh, phi, cfg, tau)
    assert precond is not None
    b, free = rng.uniform(0.5, 1.5, mesh.n_nodes), ~mesh.boundary
    x0, target = np.where(free, 0.0, b), 1e-12 * np.linalg.norm(b[free])
    for system in assemble_np(mesh, phi, cfg, tau):
        a = to_dense(system.matrix)
        dense = np.linalg.solve(a, b)
        jacobi = solve_general(system.matrix, b, 1e-12, x0=x0, free=free)
        dst = solve_general(system.matrix, b, 1e-12, x0=x0, free=free, precond=precond)
        assert dst.iterations < jacobi.iterations
        for res in (jacobi, dst):
            assert np.linalg.norm(b - a @ res.x) <= target
            assert np.abs(res.x - dense).max() <= 1e-9 * np.abs(dense).max()


def held_arrays(ws):
    """The workspace's arrays by slot name."""
    return {name: a for name in assembly._Workspace.__slots__
            if isinstance(a := getattr(ws, name), np.ndarray)}


@pytest.mark.parametrize("make", [lambda: build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3),
                                  jittered_box], ids=["box48", "jittered"])
@pytest.mark.parametrize("scheme", ["fem", "supg"])
def test_edge_slots_address_the_local_edges(make, scheme):
    mesh = make()
    ws = assembly._workspace(mesh)
    # set-up builds the edge slots from the mesh edges; no (M, 4, 4) slot table is kept
    assert all(a.size != mesh.n_tets * 16 for a in held_arrays(ws).values())
    slots = ws.edge_slots
    assemble_np(mesh, np.zeros(mesh.n_nodes), np_cfg(scheme, 0.7), 0.01)
    assert ws.edge_slots is slots
    rows, cols = ws.pattern.rows(), ws.pattern.indices
    nu, mu = np.array(LOCAL_EDGES).T
    assert ws.edge_slots.shape == (2, 6, mesh.n_tets)
    for k, (r, c) in enumerate(((nu, mu), (mu, nu))):
        assert np.array_equal(rows[ws.edge_slots[k]], mesh.tets[:, r].T)
        assert np.array_equal(cols[ws.edge_slots[k]], mesh.tets[:, c].T)


def test_eafe_lower_slots_are_the_transposes_of_the_upper():
    mesh = jittered_box()
    assemble_np(mesh, np.zeros(mesh.n_nodes), np_cfg("eafe", 0.7), 0.01)
    edges = assembly._workspace(mesh)._edges
    pat, upper, lower = edges.pattern, edges.upper, edges.lower
    assert np.array_equal(pat.rows()[upper], edges.a)
    assert np.array_equal(pat.indices[upper], edges.b)
    for a, b, slot in zip(edges.a, edges.b, lower):   # (b, a), searched for in row b
        start = pat.indptr[b]
        assert slot == start + np.searchsorted(pat.indices[start:pat.indptr[b + 1]], a)
        assert pat.indices[slot] == a


def test_workspace_setup_holds_no_slot_table():
    mesh = build_box_mesh(3)
    assemble_stiffness(mesh)
    assert assembly._workspace(mesh)._edges is None   # set-up builds no edge table
    assembly.potential_system(mesh)
    lumped_volumes(mesh)
    ws = assembly._workspace(mesh)
    assert all(a.size != mesh.n_tets * 16 for a in held_arrays(ws).values())
    # the upper and lower slots of each mesh edge hold its (a, b) and (b, a)
    a, b = ws.ends
    assert np.all(a < b)
    for slots, rows, cols in ((ws.upper, a, b), (ws.lower, b, a)):
        assert np.array_equal(ws.pattern.rows()[slots], rows)
        assert np.array_equal(ws.pattern.indices[slots], cols)
    # no assembly replaces the set-up's arrays or the edge table (fixed_slots is set later)
    held, edges = held_arrays(ws), ws._edges
    for scheme in ("fem", "supg", "eafe"):
        assemble_np(mesh, np.zeros(mesh.n_nodes), np_cfg(scheme, 0.7), 0.01)
    now = held_arrays(ws)
    assert all(now[name] is a for name, a in held.items()) and ws._edges is edges


def renumbered_box(n=4, seed=3):
    """The Kuhn box with its nodes numbered in a random order."""
    base, new = build_box_mesh(n), np.random.default_rng(seed).permutation((n + 1) ** 3)
    nodes, boundary = np.empty_like(base.nodes), np.empty_like(base.boundary)
    nodes[new], boundary[new] = base.nodes, base.boundary    # node i is now node new[i]
    return BoxMesh.from_cells(nodes, new[base.tets], boundary)


def shuffled_cells(seed=4):
    """The jittered box with its tets in a random order, corners cycled by even permutations."""
    base, rng = jittered_box(), np.random.default_rng(seed)
    cycles = np.array([[0, 1, 2, 3], [1, 2, 0, 3], [2, 0, 1, 3]])[rng.integers(3, size=base.n_tets)]
    tets = np.take_along_axis(base.tets, cycles, axis=1)[rng.permutation(base.n_tets)]
    return BoxMesh.from_cells(base.nodes, tets, base.boundary)


SETUP_MESHES = {
    "kuhn4": lambda: build_box_mesh(4),
    "kuhn8": lambda: build_box_mesh(8, (-0.5,) * 3, (0.5,) * 3),
    "kuhn32": lambda: build_box_mesh(32),   # arrays of 8 MiB and more: _mapped_zeros
    "jittered": jittered_box,
    "cube5": oracles.five_tet_cube,
    # node and element orders unlike the lattice's: the edge sort must not depend on it
    "renumbered": renumbered_box,
    "shuffled": shuffled_cells,
}


@pytest.mark.parametrize("make", SETUP_MESHES.values(), ids=SETUP_MESHES.keys())
def test_edge_setup_matches_slot_table_oracle(make):
    mesh = make()
    pattern, diag_slots, edge_slots, stiffness = oracles.slot_table_workspace(mesh)
    ws = assembly._workspace(mesh)
    for name in ("indptr", "indices"):
        assert np.array_equal(getattr(ws.pattern, name), getattr(pattern, name))
    assert np.array_equal(ws.diag_slots, diag_slots)
    assert np.array_equal(ws.edge_slots, edge_slots)
    off = pattern.rows() != pattern.indices
    assert np.array_equal(ws.pattern.data[off], stiffness[off])
    # each diagonal entry is now minus the rest of its column: last bits only
    assert np.abs(ws.pattern.data - stiffness).max() <= 1e-15 * np.abs(stiffness).max()


@pytest.mark.parametrize("make", SETUP_MESHES.values(), ids=SETUP_MESHES.keys())
def test_eafe_edge_table_matches_transpose_oracle(make):
    mesh = make()
    pruned, *expect = oracles.transpose_edge_table(*oracles.slot_table_workspace(mesh))
    ws = assembly._workspace(mesh)
    edges = assembly._EdgeTable(ws)
    for name in ("indptr", "indices"):
        assert np.array_equal(getattr(edges.pattern, name), getattr(pruned, name))
    for ours, old in zip((edges.a, edges.b, edges.weight, edges.upper, edges.lower,
                          edges.diag_slots), expect):
        assert np.array_equal(ours, old)
    # the pruned pattern's data is the workspace stiffness on the kept slots
    data = edges.pattern.data
    assert np.array_equal(data[edges.upper], -edges.weight)
    assert np.array_equal(data[edges.lower], -edges.weight)
    assert data[edges.diag_slots].tobytes() == ws.pattern.data[ws.diag_slots].tobytes()


@pytest.mark.parametrize("make", [lambda: build_box_mesh(8, (-0.5,) * 3, (0.5,) * 3),
                                  jittered_box, oracles.five_tet_cube],
                         ids=["kuhn8", "jittered", "cube5"])
def test_eafe_slot_writes_match_the_slot_bincount_bit_for_bit(make):
    mesh = make()
    edges, rng = assembly._edge_table(assembly._workspace(mesh)), np.random.default_rng(7)
    for scale in (1e-4, 1.0, 40.0):     # the series, mid range and far tail of B
        phi = scale * rng.uniform(-1.0, 1.0, mesh.n_nodes)
        for drift in ((0.7, -0.7), (0.7, -1.9), (1.0, 1.0)):
            old = oracles.slot_sum_transport(edges, phi, drift)
            for ours, expect in zip(edges.transport(phi, drift), old, strict=True):
                assert ours.tobytes() == expect.tobytes()


def test_symmetric_edge_values_are_summed_once_per_mesh_edge():
    mesh = jittered_box()
    ws = assembly._workspace(mesh)
    vals = np.random.default_rng(6).uniform(-1.0, 1.0, (6, mesh.n_tets))
    twelve = np.concatenate((vals, vals))
    once, twice = ws.from_edges(vals), ws.from_edges(twelve)
    assert np.array_equal(once[ws.upper], once[ws.lower])
    assert np.abs(once - twice).max() <= 1e-14 * np.abs(twice).max()
    # the scatter into 32-bit slots sums each slot in the order np.bincount does
    summed = np.bincount(ws.edge_slots.ravel(), twelve.ravel(), ws.pattern.nnz)
    off = ws.pattern.rows() != ws.pattern.indices
    assert ws.edge_slots.dtype == np.int32 and np.array_equal(twice[off], summed[off])


def test_row_corner_gather_matches_the_row_product_bit_for_bit():
    # fem and supg gather vol_K d at the 12 row corners from the (4, M) corner product; the
    # (12, 6) product they replaced gave the same bits, on which byte-identical histories rest
    w = np.random.default_rng(9).standard_normal((6, 5000)) * np.logspace(-6, 6, 5000)
    rows, at = assembly._EDGE_ENDS[0], assembly._INCIDENCE.T
    at_rows = at[rows]                                  # (12, 6): the row of D^T at each corner
    assert (at @ w)[rows].tobytes() == (at_rows @ w).tobytes()
    for scale in (0.25 * 0.01, 0.25 / 1024):            # fem's 0.25 tau, in the (4, 6) factor
        fem = np.take((scale * at) @ w, rows, axis=0)
        assert fem.tobytes() == ((scale * at_rows) @ w).tobytes()


def _memory_owner(a):
    """The object an array's memory comes from, past any views; None if it owns it."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


def test_mapped_zeros_take_their_own_pages_from_8_mib():
    small, big = _mapped_zeros((1 << 20) - 1), _mapped_zeros((2, 1 << 19), np.int64)
    assert _memory_owner(small) is None and isinstance(_memory_owner(big), mmap.mmap)
    assert small.shape == ((1 << 20) - 1,) and small.dtype == float
    assert big.shape == (2, 1 << 19) and big.dtype == np.int64
    for a in (small, big):
        assert a.flags.c_contiguous and a.flags.writeable and not a.any()


def test_large_mesh_arrays_stay_off_the_malloc_heap():
    # on the heap, per-mesh arrays would sit in the holes of the set-up temporaries, and
    # where later large arrays fit would depend on how many meshes were built before
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        mesh = build_box_mesh(32)
        ws = assembly._workspace(mesh)
        on_heap = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    geo = mesh.geometry
    mapped = (geo.omega, ws.edge_slots)
    assert all(isinstance(_memory_owner(a), mmap.mmap) for a in mapped)
    assert ws.edge_slots.dtype == np.int32
    kept = (mesh.nodes, mesh.tets, mesh.boundary, geo.volumes, geo.diameters, *ws.ends,
            ws.diag_slots.base, ws.pattern.indptr, ws.pattern.indices, ws.weight,
            ws.pattern.data, ws.mass)
    assert all(_memory_owner(a) is None for a in kept)
    assert on_heap < sum(a.nbytes for a in kept) + (1 << 20)
    volumes, _, omega, diam = oracles.element_major_geometry(mesh)
    for ours, old in ((geo.volumes, volumes), (geo.omega, omega), (geo.diameters, diam)):
        assert np.array_equal(ours, old) and not ours.flags.writeable


def test_workspace_setup_heap_peak_is_bounded():
    # at n = 8 no array is mapped, so tracemalloc sees the set-up's whole heap peak: the (M, 6)
    # int64 edge keys, the sort's order and sorted keys, and what the workspace keeps, 5.5 times
    # 6 M * 8 bytes; np.unique and (6, M) int64 slot temporaries took it to 9.3 times
    mesh = build_box_mesh(8)
    mesh.geometry
    tracemalloc.start()
    try:
        assembly._Workspace(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * (6 * mesh.n_tets * 8)


@pytest.mark.parametrize("scheme", ["fem", "supg", "eafe"])
def test_sweep_buffers_change_no_bit_and_keep_the_large_arrays(scheme):
    # a run passes one dict to every sweep: supg writes its (k, M) and nnz-sized arrays, the
    # returned ones too, into its arrays, each its own mapping off the heap; fem and eafe do not
    mesh, rng, buffers = build_box_mesh(8), np.random.default_rng(8), {}
    for drift in ((0.7, -0.7), (0.7, -1.9), (1.9, 1.9)):
        cfg = SchemeConfig(scheme=scheme, drift=drift)
        phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
        for fresh, kept in zip(assemble_np(mesh, phi, cfg, 0.01),
                               assemble_np(mesh, phi, cfg, 0.01, buffers)):
            assert np.array_equal(fresh.matrix.data, kept.matrix.data)
            if scheme == "supg":
                assert np.array_equal(fresh.stab_grad_weights, kept.stab_grad_weights)
    assert (scheme == "supg") == bool(buffers)
    assert all(isinstance(_memory_owner(a), mmap.mmap) for a in buffers.values())
    held = dict(buffers)
    tracemalloc.start()
    try:
        systems = assemble_np(mesh, phi, cfg, 0.01, buffers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert buffers.keys() == held.keys() and all(buffers[k] is a for k, a in held.items())
    if scheme == "supg":   # left on the heap: phi at the corners and (M,) arrays
        assert peak < 1.5 * (6 * mesh.n_tets * 8)
        assert all(s.matrix.data is buffers[i] for i, s in enumerate(systems))


def test_grid_solver_found_on_kuhn_boxes_after_edge_setup():
    # the lattice that build_box_mesh records selects the solver; row (1, 1, 1) its coupling h
    for n in (4, 8, 16, 32):
        grid = assembly.potential_system(build_box_mesh(n, (-0.5,) * 3, (0.5,) * 3))[1]
        assert grid is not None and np.allclose(grid.coupling, 1.0 / n, rtol=1e-13, atol=0.0)


def test_workspace_rejects_a_node_in_no_element():
    cube = oracles.five_tet_cube()
    nodes = np.vstack((cube.nodes, [[2.0, 2.0, 2.0]]))
    mesh = BoxMesh.from_cells(nodes, cube.tets)
    for build in (assemble_stiffness, oracles.slot_table_workspace):
        with pytest.raises(AssertionError, match="belong to no element"):
            build(mesh)


@pytest.mark.parametrize("tet", [[0, 2, 1, 3], [0, 1, 1, 3]], ids=["inverted", "repeated"])
def test_workspace_rejects_degenerate_tets(tet):
    nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    mesh = BoxMesh.from_cells(nodes, [tet, [0, 1, 2, 3]])
    with pytest.raises(DegenerateTetError):
        assemble_stiffness(mesh)


def summed_edge_weights(mesh):
    """{(a, b): sum of omega over the tets holding edge a < b}, tet by tet."""
    weights = {}
    for tet, omega in zip(mesh.tets, mesh.geometry.omega):
        for (nu, mu), w in zip(LOCAL_EDGES, omega):
            key = tuple(sorted((int(tet[nu]), int(tet[mu]))))
            weights[key] = weights.get(key, 0.0) + float(w)
    return weights


def test_jittered_box_has_negative_and_zero_edge_weights():
    weights = summed_edge_weights(jittered_box()).values()
    assert any(w < 0.0 for w in weights)
    assert any(w == 0.0 for w in weights)


@pytest.mark.parametrize("c", [0.7, 40.0])
def test_eafe_edge_assembly_matches_per_tet_kernel(c):
    mesh = jittered_box()
    phi = np.random.default_rng(3).uniform(-1.0, 1.0, mesh.n_nodes)
    tau = 0.02
    ours = assemble_np(unconstrained(mesh), phi, np_cfg("eafe", c), tau)[0]
    expect = np.diag(lumped_volumes(mesh) / 4.0) + tau * oracles.eafe_per_tet(mesh, phi, c)
    assert np.abs(to_dense(ours.matrix) - expect).max() <= 1e-14 * np.abs(expect).max()


def test_eafe_edge_assembly_matches_edge_quadrature_on_jittered_box():
    mesh = jittered_box()
    phi = np.random.default_rng(4).uniform(-1.0, 1.0, mesh.n_nodes)
    tau, c = 0.02, 0.7
    ours = assemble_np(unconstrained(mesh), phi, np_cfg("eafe", c), tau)[0]
    expect = np.diag(oracles.oracle_lumped_mass(mesh)) + tau * oracles.oracle_eafe_transport(
        mesh, phi, c
    )
    assert np.abs(to_dense(ours.matrix) - expect).max() < 1e-10


def test_eafe_pattern_drops_exactly_the_zero_weight_edges():
    mesh = jittered_box()
    a = assemble_np(mesh, np.zeros(mesh.n_nodes), np_cfg("eafe", 0.7), 0.02)[0].matrix
    stored = set(zip(a.rows().tolist(), a.indices.tolist()))
    weights = summed_edge_weights(mesh)
    for (i, j), w in weights.items():
        assert ((i, j) in stored) == (w != 0.0) == ((j, i) in stored)
    assert all((k, k) in stored for k in range(mesh.n_nodes))
    assert a.nnz == mesh.n_nodes + 2 * sum(w != 0.0 for w in weights.values())


def test_eafe_one_bernoulli_call_per_assembly(monkeypatch):
    mesh = jittered_box()
    kept = sum(w != 0.0 for w in summed_edge_weights(mesh).values())
    sizes = []

    def counting(t):
        sizes.append(np.size(t))
        return bernoulli(t)

    monkeypatch.setattr(assembly, "bernoulli", counting)
    phi = np.random.default_rng(5).uniform(-1.0, 1.0, mesh.n_nodes)
    # one call assembles both species; B depends on c only through |c|
    for drift, calls in (((0.7, -0.7), 1), ((0.7, -1.3), 2)):
        sizes.clear()
        assemble_np(mesh, phi, SchemeConfig(scheme="eafe", drift=drift), 0.02)
        assert sizes == [kept] * calls


@pytest.mark.parametrize("x", [1e-8, 1e-3, 0.5, 30.0, 700.0, 750.0])
def test_bernoulli_reflection_identity(x):
    # the eafe assembly derives B(-|t|) from B(|t|) + |t|
    expect = bernoulli(-x)
    assert abs(bernoulli(x) + x - expect) <= 4 * np.spacing(expect)


# --------------------------------------------------- oracle equivalence (all)

@pytest.mark.parametrize("scheme", ["fem", "supg", "eafe"])
def test_assemblers_match_oracle_random_potentials(scheme):
    mesh = build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3)  # 48 tets
    rng = np.random.default_rng(42)
    tau = 0.01
    cfg = SchemeConfig(scheme=scheme, drift=(0.179, -0.179), supg_scale=1.0)
    for trial in range(5):
        phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
        ours = assemble_np(mesh, phi, cfg, tau)[0]
        expect = oracles.oracle_np_matrix(mesh, phi, 0.179, tau, scheme)
        assert np.abs(to_dense(ours.matrix) - expect).max() < 1e-10


@pytest.mark.parametrize("scheme", ["fem", "supg", "eafe"])
@pytest.mark.parametrize("drift", [(0.7, -1.3), (0.179, 0.0), (0.179, -0.179)])
@pytest.mark.parametrize("make", [lambda: build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3),
                                  jittered_box, cube_fixed_at_x0],
                         ids=["box48", "jittered", "cube5_x0"])
def test_both_species_match_oracle(scheme, drift, make):
    # c_2 = -c_1 in the benchmark, so only unequal magnitudes catch a mix-up
    mesh = make()
    phi = np.random.default_rng(12).uniform(-1.5, 1.5, mesh.n_nodes)
    tau = 0.01
    cfg = SchemeConfig(scheme=scheme, drift=drift)
    for mesh in (mesh, unconstrained(mesh)):
        systems = assemble_np(mesh, phi, cfg, tau)
        assert len(systems) == 2
        for c, system in zip(drift, systems):
            expect = oracles.oracle_np_matrix(mesh, phi, c, tau, scheme)
            scale = max(1.0, np.abs(expect).max())
            assert np.abs(to_dense(system.matrix) - expect).max() < 1e-10 * scale
            if scheme == "supg":   # the oracle's node weights are -c c_K d_i
                w = oracles.oracle_supg_parts(mesh, phi, c, 1.0)[2]
                assert np.abs(system.stab_grad_weights - w).max() <= 1e-12 * np.abs(w).max()
            else:
                assert system.stab_grad_weights is None


EDGE_FORM_MESHES = {
    "box48": lambda: build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3),
    "jittered": jittered_box,       # negative and zero omega
    "cube5_x0": cube_fixed_at_x0,
    "kuhn8": lambda: build_box_mesh(8),
}


@pytest.mark.parametrize("steps", [1.0, 4.0], ids=["h2", "4h2"])
@pytest.mark.parametrize("scheme", ["fem", "supg"])
@pytest.mark.parametrize("make", EDGE_FORM_MESHES.values(), ids=EDGE_FORM_MESHES.keys())
def test_edge_form_matches_gradient_form_oracle(make, scheme, steps):
    # fem and supg are built from omega and the element-edge differences of phi;
    # the gradient form they replaced differs from them in rounding only
    mesh = make()
    phi = np.random.default_rng(14).uniform(-1.5, 1.5, mesh.n_nodes)
    tau, cfg = steps * mesh.h ** 2, SchemeConfig(scheme=scheme, drift=(0.7, -1.3))
    scale = None   # the largest entry without identity rows
    for mesh in (unconstrained(mesh), mesh):
        expect = oracles.gradient_form_np(mesh, phi, cfg, tau)
        scale = scale or max(np.abs(e.matrix.data).max() for e in expect)
        for ours, old in zip(assemble_np(mesh, phi, cfg, tau), expect, strict=True):
            assert np.array_equal(ours.matrix.indices, old.matrix.indices)
            assert np.abs(ours.matrix.data - old.matrix.data).max() <= 1e-14 * scale
            if scheme == "fem":
                assert ours.stab_grad_weights is None
            else:
                w, w_old = ours.stab_grad_weights, old.stab_grad_weights
                assert np.abs(w - w_old).max() <= 1e-14 * np.abs(w_old).max()


def test_dispatcher_selects_scheme():
    mesh = build_box_mesh(2)
    rng = np.random.default_rng(9)
    phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
    tau = 0.1
    cfg_fem = SchemeConfig(scheme="fem")
    cfg_eafe = SchemeConfig(scheme="eafe")
    a = to_dense(assemble_np(unconstrained(mesh), phi, cfg_fem, tau)[0].matrix)
    b = to_dense(assemble_np(unconstrained(mesh), phi, cfg_eafe, tau)[0].matrix)
    assert np.abs(a - b).max() > 1e-6  # genuinely different operators


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(scheme="upwind")
    with pytest.raises(ValueError):
        SchemeConfig(supg_scale=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(drift=(np.inf, 1.0))
