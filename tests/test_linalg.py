import numpy as np
import pytest

from oracles import csr_from_dense
from pnpfem.assembly import SchemeConfig, apply_dirichlet_rows, assemble_np, assemble_stiffness
from pnpfem.linalg import (
    NonConvergenceError,
    SparseMatrix,
    column_mmatrix_check,
    interior_submatrix,
    solve_general,
    solve_spd,
    spmv,
)
from pnpfem.manufactured import exact_eval
from pnpfem.mesh import build_box_mesh


def eafe_cfg(c):
    return SchemeConfig(scheme="eafe", drift=(c, -c))


def test_csr_validation():
    with pytest.raises(ValueError):
        SparseMatrix(2, [0, 1, 1], [0, 0], [1.0, 1.0])  # length mismatch
    with pytest.raises(ValueError):
        SparseMatrix(2, [0, 2, 3], [1, 0, 0], [1.0, 1.0, 1.0])  # unsorted row
    with pytest.raises(ValueError):
        SparseMatrix(2, [0, 2, 3], [0, 0, 1], [1.0, 1.0, 1.0])  # duplicate column in a row
    # columns may fall across a row boundary
    a = SparseMatrix(2, [0, 1, 2], [1, 0], [1.0, 2.0])
    assert np.array_equal(a.to_dense(), [[0.0, 1.0], [2.0, 0.0]])


def test_csr_validation_matches_row_loop():
    # the per-row loop that the vectorised check replaced, as the reference
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        indptr = np.concatenate([[0], np.cumsum(rng.integers(0, 4, n))])
        indices = rng.integers(0, n, indptr[-1])
        valid = all(np.all(np.diff(indices[indptr[r] : indptr[r + 1]]) > 0) for r in range(n))
        try:
            SparseMatrix(n, indptr, indices, np.ones(indices.size))
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == valid


def test_from_coo_sums_duplicates():
    a = SparseMatrix.from_coo(2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, -1.0])
    assert a.nnz == 2
    dense = a.to_dense()
    assert dense[0, 1] == 5.0 and dense[1, 0] == -1.0


def test_spmv_identity_and_zero():
    x = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(spmv(csr_from_dense(np.eye(3)), x), x)
    zero = SparseMatrix(3, [0, 0, 0, 0], [], [])
    assert np.array_equal(spmv(zero, x), np.zeros(3))


def test_spmv_tridiagonal():
    a = csr_from_dense(
        np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    )
    assert np.array_equal(spmv(a, np.ones(3)), np.array([1.0, 0.0, 1.0]))


def test_spmv_dimension_mismatch():
    with pytest.raises(ValueError):
        spmv(csr_from_dense(np.eye(3)), np.ones(4))


def test_solve_spd_identity():
    b = np.array([1.0, 2.0, 3.0])
    res = solve_spd(csr_from_dense(np.eye(3)), b)
    assert res.iterations <= 1
    assert np.allclose(res.x, b, atol=1e-14)


def test_solve_spd_tridiagonal():
    a = csr_from_dense(
        np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    )
    res = solve_spd(a, np.ones(3))
    assert np.allclose(res.x, [1.5, 2.0, 1.5], atol=1e-12)


def test_solve_spd_assembled_poisson():
    mesh = build_box_mesh(4, (-0.5,) * 3, (0.5,) * 3)
    a = apply_dirichlet_rows(assemble_stiffness(mesh), mesh.boundary)
    b = np.zeros(mesh.n_nodes)
    b[~mesh.boundary] = 1.0
    bc = exact_eval("u", mesh.nodes[mesh.boundary], 0.3)[0]
    b[mesh.boundary] = bc
    x0 = np.zeros(mesh.n_nodes)
    x0[mesh.boundary] = bc
    res = solve_spd(a, b, tol=1e-10, x0=x0)
    assert res.residual <= 1e-10 * np.linalg.norm(b)


def test_solve_spd_nonconvergence_carries_residual():
    a = csr_from_dense(
        np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    )
    with pytest.raises(NonConvergenceError) as err:
        solve_spd(a, np.ones(3), tol=1e-14, maxit=1)
    assert err.value.residual is not None


def test_solve_general_diagonal():
    a = csr_from_dense(np.diag([2.0, 4.0]))
    res = solve_general(a, np.array([2.0, 8.0]))
    assert np.allclose(res.x, [1.0, 2.0], atol=1e-12)


def test_solve_general_2x2():
    a = csr_from_dense(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    res = solve_general(a, np.array([1.0, 0.0]))
    assert np.allclose(res.x, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_solve_general_matches_dense_on_np_system():
    mesh = build_box_mesh(4, (-0.5,) * 3, (0.5,) * 3)
    rng = np.random.default_rng(3)
    phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
    system = assemble_np(mesh, phi, eafe_cfg(0.179), 0, (1.0 / 4.0) ** 2)
    b = rng.standard_normal(mesh.n_nodes)
    it = solve_general(system.matrix, b, tol=1e-12)
    dense = np.linalg.solve(system.matrix.to_dense(), b)
    assert np.abs(it.x - dense).max() < 1e-8


def test_solve_general_dense_fallback_on_breakdown():
    # skew system makes the first bicgstab direction degenerate (r'Ar = 0)
    a = csr_from_dense(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    res = solve_general(a, np.array([1.0, 1.0]))
    assert res.method == "dense"
    assert np.allclose(res.x, [-1.0, 1.0], atol=1e-12)


def test_mmatrix_check_identity_passes():
    rep = column_mmatrix_check(csr_from_dense(np.eye(4)))
    assert rep.verdict
    assert rep.offdiag_sign_ok and rep.column_weak_dominance_ok
    assert rep.strict_column_exists


def test_mmatrix_check_positive_offdiag_fails():
    rep = column_mmatrix_check(csr_from_dense(np.array([[1.0, 2.0], [0.0, 1.0]])))
    assert not rep.verdict
    assert not rep.offdiag_sign_ok
    assert (0, 1, 2.0) in rep.violations


def test_mmatrix_check_negative_column_sum():
    a = csr_from_dense(np.array([[1.0, 0.0], [-2.0, 1.0]]))
    rep = column_mmatrix_check(a)
    assert not rep.column_weak_dominance_ok
    assert rep.column_violations and rep.column_violations[0][0] == 0


def test_mmatrix_check_zero_diagonal_fails():
    a = csr_from_dense(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    rep = column_mmatrix_check(a)
    assert not rep.verdict
    assert any(r == c == 1 for r, c, _ in rep.violations)


def test_mmatrix_check_assembled_eafe_interior():
    mesh = build_box_mesh(4, (-0.5,) * 3, (0.5,) * 3)
    rng = np.random.default_rng(11)
    phi = rng.uniform(-2.0, 2.0, mesh.n_nodes)
    system = assemble_np(mesh, phi, eafe_cfg(0.179), 0, (1.0 / 4.0) ** 2)
    sub = interior_submatrix(system.matrix, ~mesh.boundary)
    assert column_mmatrix_check(sub).verdict


def test_mmatrix_verdict_invariant_under_symmetric_permutation():
    mesh = build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3)
    rng = np.random.default_rng(5)
    phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
    system = assemble_np(mesh, phi, eafe_cfg(0.5), 0, 0.05)
    sub = interior_submatrix(system.matrix, ~mesh.boundary)
    perm = rng.permutation(sub.n)
    dense = sub.to_dense()[np.ix_(perm, perm)]
    assert column_mmatrix_check(csr_from_dense(dense)).verdict == \
        column_mmatrix_check(sub).verdict


def test_passing_check_implies_nonnegative_inverse():
    rng = np.random.default_rng(17)
    for trial in range(5):
        n = 30
        off = -rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(off, 0.0)
        a = off.copy()
        np.fill_diagonal(a, -off.sum(axis=0) + rng.uniform(0.1, 1.0, n))
        rep = column_mmatrix_check(csr_from_dense(a))
        assert rep.verdict
        inv = np.linalg.inv(a)
        assert inv.min() >= -1e-10


def test_interior_submatrix_values():
    a = csr_from_dense(np.arange(16, dtype=float).reshape(4, 4) + 1.0)
    keep = np.array([True, False, True, False])
    sub = interior_submatrix(a, keep)
    assert sub.n == 2
    assert np.array_equal(sub.to_dense(), np.array([[1.0, 3.0], [9.0, 11.0]]))

