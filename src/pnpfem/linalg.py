"""Sparse CSR storage, iterative solvers and the column M-matrix check.

The kit deliberately carries its own compressed-row matrix and two classic
Krylov solvers (Jacobi-preconditioned CG and BiCGSTAB) instead of pulling in
a sparse-algebra dependency: every system solved here is either symmetric
positive definite on the free unknowns or a well-conditioned M-matrix
perturbation of a diagonal, and the solvers verify the true residual before
declaring success.  A dense Gaussian-elimination fallback covers awkward
small systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SparseMatrix",
    "NonConvergenceError",
    "SolveResult",
    "spmv",
    "solve_spd",
    "solve_general",
    "MMatrixReport",
    "column_mmatrix_check",
    "interior_submatrix",
]


class NonConvergenceError(RuntimeError):
    """An iterative solve missed its residual target within maxit."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class SparseMatrix:
    """Square sparse matrix in compressed-row form.

    Row offsets are monotone, column indices strictly increase within each
    row and no duplicate entries are stored.  Instances are treated as
    immutable; derived matrices share the pattern via ``with_data``.
    """

    __slots__ = ("n", "indptr", "indices", "data", "_rows", "_has_empty_rows")

    def __init__(self, n, indptr, indices, data, _checked=False):
        self.n = int(n)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=float)
        if not _checked:
            self._validate()
        self._rows = None
        self._has_empty_rows = bool(np.any(np.diff(self.indptr) == 0))

    def _validate(self):
        if self.indptr.shape != (self.n + 1,):
            raise ValueError("indptr must have length n+1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr endpoints inconsistent with nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if self.indices.size != self.data.size:
            raise ValueError("indices and data length mismatch")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.n):
            raise ValueError("column index out of range")
        # entry k + 1 continues the row of entry k unless a row starts there
        row_start = np.zeros(self.indices.size + 1, dtype=bool)
        row_start[self.indptr] = True
        bad = np.flatnonzero(~row_start[1:-1] & (np.diff(self.indices) <= 0))
        if bad.size:
            r = int(np.searchsorted(self.indptr, bad[0], side="right")) - 1
            raise ValueError(f"row {r}: column indices not strictly increasing")

    @property
    def nnz(self) -> int:
        return self.indices.size

    def rows(self) -> np.ndarray:
        """Row index of every stored entry (cached)."""
        if self._rows is None:
            self._rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        return self._rows

    def with_data(self, data) -> "SparseMatrix":
        """New matrix sharing this pattern with different values."""
        data = np.ascontiguousarray(data, dtype=float)
        if data.shape != self.data.shape:
            raise ValueError("data shape does not match pattern")
        out = SparseMatrix(self.n, self.indptr, self.indices, data, _checked=True)
        out._rows = self._rows
        return out

    def diagonal(self) -> np.ndarray:
        d = np.zeros(self.n)
        hit = self.indices == self.rows()
        d[self.indices[hit]] = self.data[hit]
        return d

    def column_sums(self) -> np.ndarray:
        return np.bincount(self.indices, weights=self.data, minlength=self.n)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[self.rows(), self.indices] = self.data
        return out

    @classmethod
    def from_coo(cls, n, rows, cols, vals) -> "SparseMatrix":
        """Build from coordinate triplets; duplicate entries are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
            raise ValueError("coordinate out of range")
        keys = rows * n + cols
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        data = np.bincount(inverse, weights=vals, minlength=unique_keys.size)
        indices = unique_keys % n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(unique_keys // n, minlength=n), out=indptr[1:])
        return cls(n, indptr, indices, data, _checked=True)


def spmv(a: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product y = A x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (a.n,):
        raise ValueError(f"dimension mismatch: matrix is {a.n}, vector is {x.shape}")
    if a.nnz == 0:
        return np.zeros(a.n)
    t = a.data * x.take(a.indices)
    if a._has_empty_rows:
        return np.bincount(a.rows(), weights=t, minlength=a.n)
    return np.add.reduceat(t, a.indptr[:-1])


@dataclass
class SolveResult:
    """Solution vector plus convergence bookkeeping."""

    x: np.ndarray
    iterations: int
    residual: float
    method: str = "cg"


def _jacobi(a: SparseMatrix) -> np.ndarray:
    d = a.diagonal()
    d = np.where(np.abs(d) > 0.0, d, 1.0)
    return d


def solve_spd(a, b, tol: float = 1e-10, maxit: int = 5000, x0=None) -> SolveResult:
    """Preconditioned conjugate gradients for SPD systems.

    The residual contract ||b - A x|| <= tol * ||b|| is verified on the true
    (recomputed) residual before returning.  For matrices whose constrained
    rows were replaced by identity rows, pass an ``x0`` that already
    satisfies those rows; the iteration then acts on the free unknowns only,
    where the operator is SPD.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (a.n,):
        raise ValueError("dimension mismatch between matrix and right-hand side")
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return SolveResult(np.zeros(a.n), 0, 0.0, "cg")
    target = tol * bnorm

    x = np.zeros(a.n) if x0 is None else np.array(x0, dtype=float)
    d = _jacobi(a)
    r = b - spmv(a, x)
    z = r / d
    p = z.copy()
    rz = float(r @ z)
    it = 0
    while it < maxit:
        rnorm = float(np.linalg.norm(r))
        if rnorm <= target:
            true_r = b - spmv(a, x)
            true_norm = float(np.linalg.norm(true_r))
            if true_norm <= target:
                return SolveResult(x, it, true_norm, "cg")
            # recursive residual drifted; restart from the true one
            r = true_r
            z = r / d
            p = z.copy()
            rz = float(r @ z)
        ap = spmv(a, p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise NonConvergenceError(
                f"cg breakdown: p'Ap = {pap:g} (matrix not SPD on the iteration subspace)",
                residual=rnorm,
                iterations=it,
            )
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        z = r / d
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    rnorm = float(np.linalg.norm(b - spmv(a, x)))
    if rnorm <= target:
        return SolveResult(x, it, rnorm, "cg")
    raise NonConvergenceError(
        f"cg: no convergence in {maxit} iterations (residual {rnorm:g}, target {target:g})",
        residual=rnorm,
        iterations=it,
    )


_DENSE_FALLBACK_LIMIT = 2000


def _dense_solve(a, b, target) -> SolveResult:
    dense = a.to_dense()
    try:
        x = np.linalg.solve(dense, b)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"dense fallback failed: {exc}") from exc
    rnorm = float(np.linalg.norm(b - dense @ x))
    if rnorm > target:
        raise NonConvergenceError(
            f"dense fallback residual {rnorm:g} above target {target:g}",
            residual=rnorm,
        )
    return SolveResult(x, 1, rnorm, "dense")


def solve_general(a, b, tol: float = 1e-10, maxit: int = 5000, x0=None) -> SolveResult:
    """Jacobi-preconditioned BiCGSTAB with a dense fallback.

    Same residual contract as ``solve_spd``.  On breakdown or stagnation the
    system is solved by Gaussian elimination when its dimension is at most
    2000; larger systems raise ``NonConvergenceError``.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (a.n,):
        raise ValueError("dimension mismatch between matrix and right-hand side")
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return SolveResult(np.zeros(a.n), 0, 0.0, "bicgstab")
    target = tol * bnorm

    x = np.zeros(a.n) if x0 is None else np.array(x0, dtype=float)
    d = _jacobi(a)
    r = b - spmv(a, x)
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(a.n)
    p = np.zeros(a.n)
    it = 0
    broke_down = False
    while it < maxit:
        rnorm = float(np.linalg.norm(r))
        if rnorm <= target:
            true_r = b - spmv(a, x)
            true_norm = float(np.linalg.norm(true_r))
            if true_norm <= target:
                return SolveResult(x, it, true_norm, "bicgstab")
            r = true_r
            r_hat = r.copy()
            rho = alpha = omega = 1.0
            v[:] = 0.0
            p[:] = 0.0
        rho_new = float(r_hat @ r)
        if rho_new == 0.0 or omega == 0.0:
            broke_down = True
            break
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        ph = p / d
        v = spmv(a, ph)
        denom = float(r_hat @ v)
        if denom == 0.0:
            broke_down = True
            break
        alpha = rho / denom
        s = r - alpha * v
        if float(np.linalg.norm(s)) <= target:
            x = x + alpha * ph
            r = s
            it += 1
            continue
        sh = s / d
        t = spmv(a, sh)
        tt = float(t @ t)
        if tt == 0.0:
            broke_down = True
            break
        omega = float(t @ s) / tt
        x = x + alpha * ph + omega * sh
        r = s - omega * t
        it += 1

    if a.n <= _DENSE_FALLBACK_LIMIT:
        return _dense_solve(a, b, target)
    reason = "breakdown" if broke_down else f"no convergence in {maxit} iterations"
    raise NonConvergenceError(
        f"bicgstab: {reason} (residual {float(np.linalg.norm(b - spmv(a, x))):g}, "
        f"target {target:g}) and dimension {a.n} exceeds dense fallback limit",
        residual=float(np.linalg.norm(b - spmv(a, x))),
        iterations=it,
    )


@dataclass
class MMatrixReport:
    """Outcome of the sufficient-condition check for a column M-matrix.

    The verdict certifies: nonpositive off-diagonals, strictly positive
    diagonal, weakly nonnegative column sums, and at least one strictly
    positive column sum.  Irreducibility is not checked, so a passing
    verdict alone does not prove that the matrix is a nonsingular M-matrix.
    """

    offdiag_sign_ok: bool
    column_weak_dominance_ok: bool
    strict_column_exists: bool
    violations: list[tuple[int, int, float]] = field(default_factory=list)
    column_violations: list[tuple[int, float]] = field(default_factory=list)
    tol: float = 0.0

    @property
    def verdict(self) -> bool:
        return (
            self.offdiag_sign_ok
            and self.column_weak_dominance_ok
            and self.strict_column_exists
        )


def column_mmatrix_check(a: SparseMatrix, rel_tol: float = 1e-12) -> MMatrixReport:
    """Check the sufficient conditions for A to be a column M-matrix.

    Sign tests use an absolute tolerance of rel_tol times the largest entry
    magnitude, so exactly-cancelling column sums of assembled operators do
    not trip the check through rounding noise.
    """
    scale = float(np.abs(a.data).max()) if a.nnz else 1.0
    tol = rel_tol * max(scale, 1e-300)

    rows = a.rows()
    on_diag = rows == a.indices
    violations = []

    off_bad = np.flatnonzero(~on_diag & (a.data > tol))
    for k in off_bad:
        violations.append((int(rows[k]), int(a.indices[k]), float(a.data[k])))
    offdiag_sign_ok = off_bad.size == 0

    diag = np.zeros(a.n)
    diag[a.indices[on_diag]] = a.data[on_diag]
    diag_bad = np.flatnonzero(diag <= tol)
    for k in diag_bad:
        violations.append((int(k), int(k), float(diag[k])))

    colsum = a.column_sums()
    col_bad = np.flatnonzero(colsum < -tol)
    column_violations = [(int(j), float(colsum[j])) for j in col_bad]

    return MMatrixReport(
        offdiag_sign_ok=offdiag_sign_ok,
        column_weak_dominance_ok=diag_bad.size == 0 and col_bad.size == 0,
        strict_column_exists=bool(np.any(colsum > tol)),
        violations=violations,
        column_violations=column_violations,
        tol=tol,
    )


def interior_submatrix(a: SparseMatrix, keep: np.ndarray) -> SparseMatrix:
    """Principal submatrix on the rows/columns flagged in ``keep``.

    This is how homogeneous-Dirichlet theory sees an operator assembled with
    identity rows on constrained nodes: the constrained block is dropped
    entirely rather than carried along as trivial equations.
    """
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (a.n,):
        raise ValueError("keep mask must have one flag per row")
    new_index = np.cumsum(keep) - 1
    rows = a.rows()
    sel = keep[rows] & keep[a.indices]
    return SparseMatrix.from_coo(
        int(keep.sum()), new_index[rows[sel]], new_index[a.indices[sel]], a.data[sel]
    )

