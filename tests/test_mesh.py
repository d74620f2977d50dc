import re
import tracemalloc

import numpy as np
import pytest

from oracles import element_major_geometry, five_tet_cube, jittered_box, kuhn_box_tets
from pnpfem import mesh as mesh_module
from pnpfem.mesh import (
    LOCAL_EDGES,
    BoxMesh,
    DegenerateTetError,
    _gradients,
    _MeshGeometry,
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
    sums = element_major_geometry(m)[1].sum(axis=1)
    assert np.abs(sums).max() == 0.0


def test_axis_major_gradients_keep_the_element_geometry(monkeypatch):
    meshes = (build_box_mesh(4), build_box_mesh(8, (-0.5,) * 3, (0.5,) * 3), jittered_box(),
              five_tet_cube())
    for mesh in meshes:
        volumes, grad, omega, diam = element_major_geometry(mesh)
        # the gradient helper, on (3, 4, M) corners, gives (4, 3, M) rows of the oracle's values
        g, vol = _gradients(mesh.nodes.T[:, mesh.tets.T])
        assert g.shape == (4, 3, mesh.n_tets) and g.flags.c_contiguous
        assert np.array_equal(g.transpose(2, 0, 1), grad) and np.array_equal(vol, volumes)
        # blocks of 7 elements, the last one short, give the one-block geometry bit for bit
        for block in (7, 1 << 20):
            monkeypatch.setattr(mesh_module, "_BLOCK", block)
            geo = _MeshGeometry(mesh.nodes, mesh.tets)
            # omega is the (M, 6) view of one C-contiguous (6, M) array, a row of M per local edge
            assert geo.omega.T.shape == (6, mesh.n_tets) and geo.omega.T.flags.c_contiguous
            for ours, old in ((geo.volumes, volumes), (geo.omega, omega), (geo.diameters, diam)):
                assert np.array_equal(ours, old)


def test_geometry_keeps_no_gradients_and_a_small_heap_peak():
    # at n = 32 whole-mesh (3, 4, M) corners or (4, 3, M) gradients take 18 MiB each (a
    # whole-mesh pass peaked at 39 MiB of heap); the blocks keep 1.5 MiB each of volumes and
    # diameters on the heap, omega in its own mapping, and temporaries of about 0.4 MiB
    mesh = build_box_mesh(32)
    tracemalloc.start()
    try:
        geo = _MeshGeometry(mesh.nodes, mesh.tets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = [getattr(geo, name) for name in geo.__slots__]
    assert sorted(a.shape for a in arrays) == [(mesh.n_tets,), (mesh.n_tets,), (mesh.n_tets, 6)]
    assert peak < (8 << 20)


def test_box_mesh_ids_match_the_corner_coordinate_oracle_with_a_small_heap_peak():
    # ids are cell origin ids plus (6, 4) id offsets; (n^3, 6, 4, 3) corner coordinates would
    # take 18 MiB at n = 32 (that build peaked at 34 MB of heap), the ids 6 MiB
    for n in (1, 2, 5):
        assert np.array_equal(build_box_mesh(n).tets, kuhn_box_tets(n))
    tracemalloc.start()
    try:
        mesh = build_box_mesh(32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(mesh.tets, kuhn_box_tets(32))
    assert peak < 2 * mesh.tets.nbytes


def test_degenerate_tet_is_named_by_its_global_index():
    # three tets inverted in the second and third blocks: the first is named, all are counted
    base = build_box_mesh(12)
    assert base.n_tets > 2 * mesh_module._BLOCK
    tets = base.tets.copy()
    bad = [mesh_module._BLOCK + 904, 2 * mesh_module._BLOCK + 10, base.n_tets - 1]
    tets[bad, 1], tets[bad, 2] = tets[bad, 2], tets[bad, 1]
    mesh = BoxMesh(base.nodes, tets, base.boundary)
    volume = base.geometry.volumes[bad[0]]
    message = f"tet {bad[0]} has nonpositive volume {-volume:g} (3 offending tets in total)"
    with pytest.raises(DegenerateTetError, match=f"^{re.escape(message)}$"):
        mesh.geometry


def test_geometry_is_read_only():
    # every assembly reads these arrays; a write would change every later system
    geo = jittered_box().geometry
    arrays = [getattr(geo, name) for name in geo.__slots__] + [geo.omega.T]
    assert len(arrays) == 4
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


def test_kuhn_path_tet_geometry():
    # reference Kuhn tet (0,0,0),(h,0,0),(h,h,0),(h,h,h)
    h = 0.25
    nodes = np.array([[0, 0, 0], [h, 0, 0], [h, h, 0], [h, h, h]], dtype=float)
    m = BoxMesh.from_cells(nodes, [[0, 1, 2, 3]])
    g = m.geometry
    volume, grad_lambda, omega = g.volumes[0], element_major_geometry(m)[1][0], g.omega[0]
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
    volume, grad_lambda, omega = g.volumes[5], element_major_geometry(m)[1][5], g.omega[5]
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
    assert r.violations.shape == (3 * m.n_tets, 3)
    assert (np.abs(r.violations[:, 2]) <= r.zero_tol).all()


def test_quality_regular_tet_all_positive():
    verts = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    )
    # order for positive volume
    m = BoxMesh.from_cells(verts, [[0, 1, 3, 2]])
    r = mesh_quality_report(m)
    assert r.all_strictly_positive
    assert r.positive_fraction == 1.0
    assert r.violations.shape == (0, 3)


def test_quality_stretched_box_reports_violations():
    m = build_box_mesh(2, (0, 0, 0), (10, 1, 1))
    r = mesh_quality_report(m)
    assert not r.all_strictly_positive
    assert len(r.violations) > 0
    omega = m.geometry.omega
    expect = [[t, e, omega[t, e]] for t in range(m.n_tets) for e in range(6)
              if not omega[t, e] > r.zero_tol]
    assert r.violations.tolist() == expect
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


def test_dump_mesh_format(tmp_path):
    m = build_box_mesh(1)
    dump_mesh(m, tmp_path / "mesh.txt")
    lines = (tmp_path / "mesh.txt").read_text().strip().split("\n")
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
