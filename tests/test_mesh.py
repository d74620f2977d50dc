import io

import numpy as np
import pytest

from pnpfem.mesh import (
    LOCAL_EDGES,
    BoxMesh,
    DegenerateTetError,
    build_box_mesh,
    dump_mesh,
    mesh_quality_report,
)


def test_counts_n1():
    m = build_box_mesh(1)
    assert m.n_nodes == 8
    assert m.n_tets == 6
    assert m.boundary.sum() == 8


def test_counts_n2():
    m = build_box_mesh(2)
    assert m.n_nodes == 27
    assert m.n_tets == 48
    assert m.boundary.sum() == 26


def test_center_node_interior():
    m = build_box_mesh(2, (-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
    idx = np.flatnonzero((np.abs(m.nodes) < 1e-14).all(axis=1))
    assert idx.size == 1
    assert not m.boundary[idx[0]]


@pytest.mark.parametrize("bad", [0, -1])
def test_rejects_bad_subdivisions(bad):
    with pytest.raises(ValueError):
        build_box_mesh(bad)


def test_rejects_degenerate_box():
    with pytest.raises(ValueError):
        build_box_mesh(2, (0, 0, 0), (1, 0, 1))


def test_positive_volumes_and_box_volume():
    m = build_box_mesh(3, (-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
    vols = m.geometry.volumes
    assert (vols > 0).all()
    assert abs(vols.sum() - 1.0) < 1e-12


def test_grad_lambda_partition_of_unity():
    m = build_box_mesh(2, (0, 0, 0), (2, 1, 3))
    sums = m.geometry.grad_lambda.sum(axis=1)
    assert np.abs(sums).max() == 0.0


def test_kuhn_path_tet_geometry():
    # reference Kuhn tet (0,0,0),(h,0,0),(h,h,0),(h,h,h)
    h = 0.25
    nodes = np.array([[0, 0, 0], [h, 0, 0], [h, h, 0], [h, h, h]], dtype=float)
    m = BoxMesh.from_cells(nodes, [[0, 1, 2, 3]])
    g = m.geometry
    volume, grad_lambda, omega = g.volumes[0], g.grad_lambda[0], g.omega[0]
    assert volume == pytest.approx(h**3 / 6.0, rel=1e-14)
    assert np.allclose(grad_lambda[0], [-1.0 / h, 0.0, 0.0], atol=1e-13)
    # omega is -volume * (grad mu . grad nu), exactly
    for e, (nu, mu) in enumerate(LOCAL_EDGES):
        expect = -volume * float(grad_lambda[mu] @ grad_lambda[nu])
        assert omega[e] == expect


def test_stiffness_row_sums_from_omega():
    # summing -omega over the edges at a vertex gives minus the diagonal
    m = build_box_mesh(2, (0, 0, 0), (1, 2, 1))
    g = m.geometry
    volume, grad_lambda, omega = g.volumes[5], g.grad_lambda[5], g.omega[5]
    for v in range(4):
        diag = volume * float(grad_lambda[v] @ grad_lambda[v])
        acc = 0.0
        for e, (nu, mu) in enumerate(LOCAL_EDGES):
            if v in (nu, mu):
                acc -= omega[e]
        assert acc == pytest.approx(-diag, abs=1e-15)


def test_quality_kuhn_mesh_three_zero_weights():
    m = build_box_mesh(1)
    r = mesh_quality_report(m)
    assert not r.all_strictly_positive
    assert r.nonnegative
    assert r.tet_has_positive_edge
    assert r.weak_condition
    assert r.positive_fraction == pytest.approx(0.5)
    assert (r.per_tet_positive == 3).all()
    # violations are exactly the zero-weight (tet, edge) pairs
    assert len(r.violations) == 3 * m.n_tets
    assert all(abs(w) <= r.zero_tol for _, _, w in r.violations)


def test_quality_regular_tet_all_positive():
    verts = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    )
    # order for positive volume
    m = BoxMesh.from_cells(verts, [[0, 1, 3, 2]])
    r = mesh_quality_report(m)
    assert r.all_strictly_positive
    assert r.positive_fraction == 1.0
    assert r.violations == []


def test_quality_stretched_box_reports_violations():
    m = build_box_mesh(2, (0, 0, 0), (10, 1, 1))
    r = mesh_quality_report(m)
    assert not r.all_strictly_positive
    assert len(r.violations) > 0
    # axis-aligned Kuhn cells never produce negative weights, only zeros
    assert r.nonnegative


def test_inverted_tet_is_hard_error():
    nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    m = BoxMesh.from_cells(nodes, [[0, 2, 1, 3]])  # reflected order
    with pytest.raises(DegenerateTetError):
        mesh_quality_report(m)


def test_mesh_size_is_max_diameter():
    m = build_box_mesh(4, (0, 0, 0), (1, 1, 1))
    assert m.h == pytest.approx(np.sqrt(3.0) / 4.0, rel=1e-14)


def test_dump_mesh_format():
    m = build_box_mesh(1)
    buf = io.StringIO()
    dump_mesh(m, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "nodes 8 tets 6"
    assert len(lines) == 1 + 8 + 6
    x, y, z = (float(v) for v in lines[1].split())
    assert (x, y, z) == (0.0, 0.0, 0.0)
    tet = [int(v) for v in lines[9].split()]
    assert len(tet) == 4 and all(0 <= v < 8 for v in tet)


def test_from_cells_validates_indices():
    nodes = np.zeros((3, 3))
    with pytest.raises(ValueError):
        BoxMesh.from_cells(nodes, [[0, 1, 2, 5]])


def test_determinism():
    a = build_box_mesh(3, (-0.5,) * 3, (0.5,) * 3)
    b = build_box_mesh(3, (-0.5,) * 3, (0.5,) * 3)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.tets, b.tets)
