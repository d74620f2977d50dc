import numpy as np
import pytest

from oracles import csr_from_dense, from_coo, interior_submatrix_coo, jittered_box, to_dense
from pnpfem import linalg
from pnpfem.assembly import (
    SchemeConfig,
    assemble_np,
    assemble_stiffness,
    potential_system,
)
from pnpfem.linalg import (
    NonConvergenceError,
    SparseMatrix,
    column_mmatrix_check,
    interior_submatrix,
    solve_general,
    solve_spd,
    spmv,
)
from pnpfem.manufactured import exact_eval, scheme_config
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
    assert np.array_equal(to_dense(a), [[0.0, 1.0], [2.0, 0.0]])


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
    a = from_coo(2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, -1.0])
    assert a.nnz == 2
    dense = to_dense(a)
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


def assert_spmv_matches_dense(a, x):
    # rtol 1e-14 on the sum of |a_ij x_j|, the scale of the rounding in each row
    dense = to_dense(a)
    assert np.all(np.abs(spmv(a, x) - dense @ x) <= 1e-14 * (np.abs(dense) @ np.abs(x)))
    assert np.array_equal(a.diagonal(), np.diag(dense))


def test_spmv_mixed_row_lengths_and_empty_rows():
    rng = np.random.default_rng(7)
    # empty first, middle and last rows; rows of 1 to 6 entries, some without a diagonal
    lengths = [0, 3, 1, 6, 0, 2, 5, 1, 4, 0]
    n = len(lengths)
    indices = np.concatenate([np.sort(rng.choice(n, k, replace=False)) for k in lengths])
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    a = SparseMatrix(n, indptr, indices, rng.standard_normal(indices.size))
    assert a.ell()[0].shape == (6, n)
    x = rng.standard_normal(n)
    assert_spmv_matches_dense(a, x)
    assert np.all(spmv(a, x)[[0, 4, 9]] == 0.0)
    # a stored row reads only its own columns: a NaN reaches the rows that
    # store its column (an empty row pads with its own index)
    stored = np.diff(indptr) > 0
    for j in range(n):
        x_nan = x.copy()
        x_nan[j] = np.nan
        hit = np.isnan(spmv(a, x_nan))
        assert np.array_equal(hit[stored], to_dense(a)[stored, j] != 0.0)


def box_operators(mesh):
    rng = np.random.default_rng(5)
    phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
    yield assemble_stiffness(mesh)
    for scheme in ("fem", "supg", "eafe"):
        yield assemble_np(mesh, phi, SchemeConfig(scheme=scheme), 0.05)[0].matrix


def test_spmv_matches_dense_on_box_operators():
    mesh = build_box_mesh(4, (-0.5,) * 3, (0.5,) * 3)
    x = np.random.default_rng(11).standard_normal(mesh.n_nodes)
    for a in (*box_operators(mesh), potential_system(mesh)[0]):
        assert_spmv_matches_dense(a, x)


def test_spmv_matches_dense_on_jittered_mesh():
    mesh = jittered_box(3)
    x = np.random.default_rng(13).standard_normal(mesh.n_nodes)
    for a in box_operators(mesh):
        assert_spmv_matches_dense(a, x)


def test_padded_layout_is_built_on_first_product_and_shared():
    mesh = build_box_mesh(3, (-0.5,) * 3, (0.5,) * 3)
    a = assemble_stiffness(mesh)
    assert "ell" not in a._derived and a._ell_vals is None
    b = a.with_data(2.0 * a.data)
    x = np.random.default_rng(17).standard_normal(mesh.n_nodes)
    assert np.array_equal(spmv(b, x), 2.0 * spmv(a, x))
    (cols_a, vals_a), (cols_b, vals_b) = a.ell(), b.ell()
    assert b._derived is a._derived and cols_b is cols_a
    assert cols_a.shape == (np.diff(a.indptr).max(), a.n)
    assert np.array_equal(vals_b, 2.0 * vals_a)


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
    a = potential_system(mesh)[0]
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


def test_converged_start_costs_one_spmv(monkeypatch):
    # ... and no preconditioner set-up
    calls = []

    def counting(a, x):
        calls.append(None)
        return spmv(a, x)

    def no_jacobi(a):
        raise AssertionError("preconditioner built for a converged start")

    monkeypatch.setattr(linalg, "spmv", counting)
    monkeypatch.setattr(linalg, "_jacobi", no_jacobi)
    a = csr_from_dense(
        np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    )
    for solve in (solve_spd, solve_general):
        calls.clear()
        res = solve(a, np.ones(3), x0=[1.5, 2.0, 1.5])
        assert (res.iterations, res.residual, len(calls)) == (0, 0.0, 1)


def test_solve_general_diagonal():
    a = csr_from_dense(np.diag([2.0, 4.0]))
    res = solve_general(a, np.array([2.0, 8.0]))
    assert np.allclose(res.x, [1.0, 2.0], atol=1e-12)


def test_solve_general_2x2():
    a = csr_from_dense(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    res = solve_general(a, np.array([1.0, 0.0]))
    assert np.allclose(res.x, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    # meeting the target in the last allowed iteration is success, as in CG
    last = solve_general(a, np.array([1.0, 0.0]), maxit=res.iterations)
    assert last.iterations == res.iterations and np.array_equal(last.x, res.x)


def test_solve_general_matches_dense_on_np_system():
    mesh = build_box_mesh(4, (-0.5,) * 3, (0.5,) * 3)
    rng = np.random.default_rng(3)
    phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
    system = assemble_np(mesh, phi, eafe_cfg(0.179), (1.0 / 4.0) ** 2)[0]
    b = rng.standard_normal(mesh.n_nodes)
    it = solve_general(system.matrix, b, tol=1e-12)
    dense = np.linalg.solve(to_dense(system.matrix), b)
    assert np.abs(it.x - dense).max() < 1e-8


def test_solve_general_breakdown_raises():
    # skew system makes the first bicgstab direction degenerate (r'Ar = 0);
    # no other method takes over, the failure is reported with its residual
    a = csr_from_dense(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(NonConvergenceError) as err:
        solve_general(a, np.array([1.0, 1.0]))
    assert str(err.value).startswith("bicgstab: breakdown")
    assert err.value.residual == pytest.approx(np.sqrt(2.0))
    assert err.value.iterations == 0


def test_solve_general_nonconvergence_carries_residual():
    a = csr_from_dense(
        np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    )
    with pytest.raises(NonConvergenceError) as err:
        solve_general(a, np.ones(3), tol=1e-14, maxit=1)
    assert "bicgstab: no convergence in 1 iterations" in str(err.value)
    assert err.value.iterations == 1 and err.value.residual > 1e-14 * np.sqrt(3.0)


def test_solve_general_stops_when_restarts_stagnate():
    # below the rounding floor the recursive residual keeps falling and the
    # true one cannot: after 3 restarts without a new lowest true residual the
    # solve stops, long before maxit
    rng = np.random.default_rng(0)
    a = csr_from_dense(rng.uniform(-1.0, 1.0, (20, 20)) + 20.0 * np.eye(20))
    with pytest.raises(NonConvergenceError) as err:
        solve_general(a, rng.uniform(-1.0, 1.0, 20), tol=1e-18)
    assert str(err.value).startswith("bicgstab: stagnation")
    assert err.value.iterations < 100
    assert err.value.residual > 1e-18 * np.sqrt(20.0)


def test_mmatrix_check_identity_passes():
    rep = column_mmatrix_check(csr_from_dense(np.eye(4)))
    assert rep.verdict
    assert rep.offdiag_sign_ok and rep.column_weak_dominance_ok
    assert rep.strict_column_exists


def test_mmatrix_check_positive_offdiag_fails():
    rep = column_mmatrix_check(csr_from_dense(np.array([[1.0, 2.0], [0.0, 1.0]])))
    assert not rep.verdict
    assert not rep.offdiag_sign_ok
    assert (rep.violations == (0, 1, 2.0)).all(axis=1).any()


def test_mmatrix_check_negative_column_sum():
    a = csr_from_dense(np.array([[1.0, 0.0], [-2.0, 1.0]]))
    rep = column_mmatrix_check(a)
    assert not rep.column_weak_dominance_ok
    assert len(rep.column_violations) and rep.column_violations[0][0] == 0


def test_mmatrix_check_zero_diagonal_fails():
    a = csr_from_dense(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    rep = column_mmatrix_check(a)
    assert not rep.verdict
    assert any(r == c == 1 for r, c, _ in rep.violations)


def test_mmatrix_check_assembled_eafe_interior():
    mesh = build_box_mesh(4, (-0.5,) * 3, (0.5,) * 3)
    rng = np.random.default_rng(11)
    phi = rng.uniform(-2.0, 2.0, mesh.n_nodes)
    system = assemble_np(mesh, phi, eafe_cfg(0.179), (1.0 / 4.0) ** 2)[0]
    sub = interior_submatrix(system.matrix, ~mesh.boundary)
    assert column_mmatrix_check(sub).verdict


def test_mmatrix_verdict_invariant_under_symmetric_permutation():
    mesh = build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3)
    rng = np.random.default_rng(5)
    phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
    system = assemble_np(mesh, phi, eafe_cfg(0.5), 0.05)[0]
    sub = interior_submatrix(system.matrix, ~mesh.boundary)
    perm = rng.permutation(sub.n)
    dense = to_dense(sub)[np.ix_(perm, perm)]
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


MMATRIX_FIELDS = ("offdiag_sign_ok", "column_weak_dominance_ok", "strict_column_exists",
                  "violations", "column_violations")


@pytest.mark.parametrize("scheme", ["fem", "supg", "eafe"])
def test_masked_verdict_equals_submatrix_verdict(scheme):
    # the masked check reads the full matrix; its report, violations in the
    # block's numbering included, is the submatrix's field for field
    rng = np.random.default_rng(11)
    box = (-0.5,) * 3, (0.5,) * 3
    for mesh in (build_box_mesh(4, *box), build_box_mesh(8, *box), jittered_box()):
        n = mesh.n_nodes
        masks = (~mesh.boundary, rng.random(n) < 0.7, rng.random(n) < 0.2,
                 np.ones(n, dtype=bool), np.zeros(n, dtype=bool))
        for size in (0.1, 5.0):
            phi = size * rng.standard_normal(n)
            for system in assemble_np(mesh, phi, scheme_config(scheme), 1.0 / 64):
                a = system.matrix
                for keep in masks:
                    got = column_mmatrix_check(a, keep=keep)
                    want = column_mmatrix_check(interior_submatrix(a, keep))
                    for name in MMATRIX_FIELDS:
                        assert np.array_equal(getattr(got, name), getattr(want, name)), name
                whole = column_mmatrix_check(a, keep=np.ones(n, dtype=bool))
                for name in MMATRIX_FIELDS:   # keep=None is the whole matrix
                    assert np.array_equal(getattr(column_mmatrix_check(a), name),
                                          getattr(whole, name)), name
    with pytest.raises(ValueError):
        column_mmatrix_check(a, keep=np.ones(n + 1, dtype=bool))


def test_interior_submatrix_values():
    a = csr_from_dense(np.arange(16, dtype=float).reshape(4, 4) + 1.0)
    keep = np.array([True, False, True, False])
    sub = interior_submatrix(a, keep)
    assert sub.n == 2
    assert np.array_equal(to_dense(sub), np.array([[1.0, 3.0], [9.0, 11.0]]))



def assert_same_csr(a, b):
    assert a.n == b.n
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("scheme", ["fem", "supg", "eafe"])
def test_interior_submatrix_matches_coo_build_on_assembled_matrices(scheme):
    mesh = build_box_mesh(3, (-0.5,) * 3, (0.5,) * 3)
    rng = np.random.default_rng(3)
    phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
    a = assemble_np(mesh, phi, SchemeConfig(scheme=scheme), 0.05)[0].matrix
    for keep in (~mesh.boundary, rng.random(mesh.n_nodes) < 0.5):
        assert_same_csr(interior_submatrix(a, keep), interior_submatrix_coo(a, keep))


def test_interior_submatrix_matches_coo_build_on_random_masks():
    rng = np.random.default_rng(23)
    for trial in range(40):
        n = int(rng.integers(1, 12))
        dense = np.where(rng.random((n, n)) < 0.3, rng.standard_normal((n, n)), 0.0)
        dense[int(rng.integers(n))] = 0.0                     # an empty row
        a = csr_from_dense(dense)
        for keep in (rng.random(n) < 0.5, np.zeros(n, bool), np.ones(n, bool)):
            sub = interior_submatrix(a, keep)
            assert_same_csr(sub, interior_submatrix_coo(a, keep))
            assert np.array_equal(to_dense(sub), dense[np.ix_(keep, keep)])
    # kept rows whose every stored entry sits in a dropped column
    a = csr_from_dense(np.array([[0.0, 1.0, 0.0], [2.0, 3.0, 0.0], [0.0, 4.0, 0.0]]))
    keep = np.array([True, False, True])
    sub = interior_submatrix(a, keep)
    assert_same_csr(sub, interior_submatrix_coo(a, keep))
    assert sub.nnz == 0 and sub.indptr.tolist() == [0, 0, 0]


def identity_row_system():
    """Tridiagonal SPD matrix with identity rows 0 and 3; rows 1 and 2 are free."""
    a = np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 2.5, -1.0, 0.0],
                  [0.0, -1.0, 2.5, -1.0], [0.0, 0.0, 0.0, 1.0]])
    return a, np.array([False, True, True, False])


@pytest.mark.parametrize("solve", [solve_spd, solve_general])
def test_target_is_taken_on_the_free_rows(solve):
    dense, free = identity_row_system()
    b = np.array([1e4, 1e-3, 2e-3, -1e4])      # ||b|| is 6e6 times ||b_free||
    x0 = np.linalg.solve(dense, b) + [0.0, 1e-5, -1e-5, 0.0]
    # on all rows the start already meets the target, with free-row residual 5e-5
    assert solve(csr_from_dense(dense), b, tol=1e-8, x0=x0).iterations == 0
    res = solve(csr_from_dense(dense), b, tol=1e-8, x0=x0, free=free)
    assert res.iterations > 0
    assert res.residual <= 1e-8 * np.linalg.norm(b[free])


@pytest.mark.parametrize("solve", [solve_spd, solve_general])
def test_zero_free_rows_take_the_target_on_all_rows(solve):
    dense, free = identity_row_system()
    b = np.array([3.0, 0.0, 0.0, -2.0])
    res = solve(csr_from_dense(dense), b, tol=1e-10, x0=np.where(free, 0.0, b), free=free)
    assert res.iterations > 0
    assert res.residual <= 1e-10 * np.linalg.norm(b)
    assert np.allclose(res.x, np.linalg.solve(dense, b), rtol=1e-9, atol=0.0)
    # b = 0 everywhere: x = 0 whatever the start
    zero = solve(csr_from_dense(dense), np.zeros(4), x0=np.ones(4), free=free)
    assert (zero.iterations, zero.residual) == (0, 0.0)
    assert np.array_equal(zero.x, np.zeros(4))


def test_solve_general_applies_the_callers_preconditioner():
    rng = np.random.default_rng(4)
    dense = rng.uniform(-1.0, 1.0, (12, 12)) + 6.0 * np.eye(12)
    b = rng.uniform(-1.0, 1.0, 12)
    applied = []

    def exact(r):
        applied.append(r.copy())
        return np.linalg.solve(dense, r)

    res = solve_general(csr_from_dense(dense), b, tol=1e-12, precond=exact)
    assert res.iterations == 1 and len(applied) == 1     # s vanishes after one half step
    assert res.residual <= 1e-12 * np.linalg.norm(b)
