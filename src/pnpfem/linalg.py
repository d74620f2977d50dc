"""Sparse CSR storage, iterative solvers and the column M-matrix check.

Matrices are stored in compressed-row form; products run on a padded row
(ELLPACK) copy whose width K is the longest row: K full-length vector adds.

The kit deliberately carries its own compressed-row matrix and two classic
Krylov solvers instead of pulling in a sparse-algebra dependency: CG with a
Jacobi preconditioner, and BiCGSTAB with the caller's right preconditioner or
Jacobi.  On grid boxes the Gummel sweep passes it the DST-I inverse of the
zero-drift concentration operator while the edge Peclet number is at most 1
(``assembly.concentration_preconditioner``).  The potential system is SPD on
the free unknowns; on Kuhn meshes eafe's systems are column M-matrices and
fem's and supg's are not (positive off-diagonals on zero-weight edges).  The
solvers verify the true residual against tol times the norm of b on the free
rows before declaring success (one product for a start meeting the target).
A breakdown, a stagnating restart sequence or a missed target raises
``NonConvergenceError``; no second solver takes over.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    immutable; ``with_data`` siblings share the pattern and the index arrays
    derived from it, each built on first use.
    """

    __slots__ = ("n", "indptr", "indices", "data", "_derived", "_ell_vals")

    def __init__(self, n, indptr, indices, data, _checked=False):
        self.n = int(n)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=float)
        if not _checked:
            self._validate()
        self._derived = {}  # key -> array derived from the pattern
        self._ell_vals = None

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

    def _cached(self, key, build):
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def rows(self) -> np.ndarray:
        """Row index of every stored entry (cached per pattern)."""
        return self._cached("rows", lambda: np.repeat(np.arange(self.n), np.diff(self.indptr)))

    def with_data(self, data) -> "SparseMatrix":
        """New matrix sharing this pattern with different values."""
        data = np.ascontiguousarray(data, dtype=float)
        if data.shape != self.data.shape:
            raise ValueError("data shape does not match pattern")
        out = SparseMatrix(self.n, self.indptr, self.indices, data, _checked=True)
        out._derived = self._derived
        return out

    def diagonal(self) -> np.ndarray:
        slots = self._cached("diag", lambda: np.flatnonzero(self.indices == self.rows()))
        d = np.zeros(self.n)
        d[self.indices[slots]] = self.data[slots]
        return d

    def ell(self) -> tuple[np.ndarray, np.ndarray]:
        """Padded row layout: (K, n) columns, K the longest row, and the values there."""
        cols, place = self._cached("ell", self._padded_layout)
        if self._ell_vals is None:
            vals = np.zeros(cols.size)
            vals[place] = self.data
            self._ell_vals = vals.reshape(cols.shape)
        return cols, self._ell_vals

    def _padded_layout(self):
        # column j of the layout is row j; a short row is padded with its first
        # stored column (its own index if empty), which ``ell`` pairs with zero
        lengths = np.diff(self.indptr)
        rows = self.rows()
        place = (np.arange(self.nnz) - self.indptr[rows]) * self.n + rows
        pad = np.arange(self.n)
        pad[lengths > 0] = self.indices[self.indptr[:-1][lengths > 0]]
        cols = np.tile(pad, int(lengths.max(initial=0)))
        cols[place] = self.indices
        return cols.reshape(-1, self.n), place


def spmv(a: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product y = A x on the padded row layout of ``a.ell()``.

    The layout's width is the longest row, so the product is K full-length
    vector operations; a row's entries are summed in column order.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (a.n,):
        raise ValueError(f"dimension mismatch: matrix is {a.n}, vector is {x.shape}")
    cols, vals = a.ell()
    t = x.take(cols)
    t *= vals
    return t.sum(axis=0)


@dataclass
class SolveResult:
    """Solution vector plus convergence bookkeeping."""

    x: np.ndarray
    iterations: int
    residual: float
    method: str = "cg"


def _jacobi(a: SparseMatrix) -> np.ndarray:
    d = a.diagonal()
    return np.where(np.abs(d) > 0.0, d, 1.0)


def _lost_to_rounding(x, y, xy: float) -> bool:
    q = abs(xy) / (x.size * np.finfo(float).eps)  # lost: q <= |x| . |y| (<= ||x|| ||y||)
    return q * q <= float(x @ x) * float(y @ y) and q <= float(np.abs(x) @ np.abs(y))


def _start(a, b, tol, x0, free):
    """b, the target tol * ||b_free|| (see ``solve_spd``) and the start: x0, or 0 for b = 0."""
    b = np.asarray(b, dtype=float)
    if b.shape != (a.n,):
        raise ValueError("dimension mismatch between matrix and right-hand side")
    target = tol * float(np.linalg.norm(b if free is None else b[free]) or np.linalg.norm(b))
    return b, target, np.zeros(a.n) if x0 is None or target == 0.0 else np.array(x0, dtype=float)


def solve_spd(a, b, tol: float = 1e-10, maxit: int = 5000, x0=None, free=None) -> SolveResult:
    """Jacobi-preconditioned conjugate gradients for SPD systems.

    The residual contract ||b - A x|| <= tol * ||b_free|| is verified on the
    true (recomputed) residual before returning, b_free being b on the rows
    ``free`` masks (all rows if None or b is 0 there).  For matrices whose
    constrained rows were replaced by identity rows, pass an ``x0`` that
    satisfies those rows and the other rows as ``free``: the iteration then
    acts on the free unknowns only, where the operator is SPD.
    """
    b, target, x = _start(a, b, tol, x0, free)
    r = b - spmv(a, x)
    rnorm = float(np.linalg.norm(r))
    if rnorm <= target:
        return SolveResult(x, 0, rnorm, "cg")
    d = _jacobi(a)
    z = r / d
    p = z.copy()
    rz = float(r @ z)
    it = 0
    while it < maxit:
        rnorm = float(np.linalg.norm(r))
        if rnorm <= target:  # r is the recursive residual: check the true one
            r = b - spmv(a, x)
            rnorm = float(np.linalg.norm(r))
            if rnorm <= target:
                return SolveResult(x, it, rnorm, "cg")
            # recursive residual drifted; restart from the true one
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


def solve_general(a, b, tol: float = 1e-10, maxit: int = 5000, x0=None, free=None,
                  precond=None) -> SolveResult:
    """Right-preconditioned BiCGSTAB: ``precond(r)`` applies M^-1, Jacobi if None.

    Same residual contract as ``solve_spd``.  A breakdown (an inner product x . y
    within its rounding bound n eps |x| . |y|), stagnation (3 restarts in a row
    from the true residual without a new lowest one) or a missed target after
    ``maxit`` iterations raises ``NonConvergenceError`` (true residual, iterations).
    """
    b, target, x = _start(a, b, tol, x0, free)
    r = b - spmv(a, x)
    rnorm = float(np.linalg.norm(r))
    if rnorm <= target:
        return SolveResult(x, 0, rnorm, "bicgstab")
    if precond is None:
        d = _jacobi(a)
        precond = lambda r: r / d
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(a.n)
    p = np.zeros(a.n)
    it, lowest, stale = 0, rnorm, 0     # lowest true residual, restarts since it fell
    while it < maxit:
        rnorm = float(np.linalg.norm(r))
        if rnorm <= target:  # r is the recursive residual: check the true one
            r = b - spmv(a, x)
            rnorm = float(np.linalg.norm(r))
            if rnorm <= target:
                return SolveResult(x, it, rnorm, "bicgstab")
            lowest, stale = min(lowest, rnorm), 0 if rnorm < lowest else stale + 1
            if stale == 3:
                break
            r_hat = r.copy()
            rho = alpha = omega = 1.0
            v[:] = 0.0
            p[:] = 0.0
        rho_new = float(r_hat @ r)
        if _lost_to_rounding(r_hat, r, rho_new):
            break
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        ph = precond(p)
        v = spmv(a, ph)
        denom = float(r_hat @ v)
        if _lost_to_rounding(r_hat, v, denom):
            break
        alpha = rho / denom
        s = r - alpha * v
        if float(np.linalg.norm(s)) <= target:
            x = x + alpha * ph
            r = s
            it += 1
            continue
        sh = precond(s)
        t = spmv(a, sh)
        ts = float(t @ s)
        if _lost_to_rounding(t, s, ts):
            break
        omega = ts / float(t @ t)
        x = x + alpha * ph + omega * sh
        r = s - omega * t
        it += 1

    rnorm = float(np.linalg.norm(b - spmv(a, x)))
    if rnorm <= target:
        return SolveResult(x, it, rnorm, "bicgstab")
    # the loop only ends early on stagnation or a lost inner product
    reason = ("stagnation: 3 restarts without a new lowest true residual" if stale == 3
              else "breakdown" if it < maxit else f"no convergence in {maxit} iterations")
    raise NonConvergenceError(
        f"bicgstab: {reason} (residual {rnorm:g}, target {target:g})",
        residual=rnorm,
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
    violations: np.ndarray  # (k, 3) float rows (row, column, value)
    column_violations: np.ndarray  # (k, 2) float rows (column, column sum)

    @property
    def verdict(self) -> bool:
        return (
            self.offdiag_sign_ok
            and self.column_weak_dominance_ok
            and self.strict_column_exists
        )


def column_mmatrix_check(a: SparseMatrix, rel_tol: float = 1e-12, keep=None) -> MMatrixReport:
    """Check the sufficient conditions for A to be a column M-matrix.

    Sign tests use an absolute tolerance of rel_tol times the largest entry
    magnitude, so exactly-cancelling column sums of assembled operators do
    not trip the check through rounding noise.  With a node mask ``keep``, the report of
    ``interior_submatrix(a, keep)`` (its numbering), read in place: entries off that block are 0.
    """
    rows, cols, data = a.rows(), a.indices, a.data
    kept, number = slice(None), np.arange(a.n)
    if keep is not None:
        kept = np.asarray(keep, dtype=bool)
        if kept.shape != (a.n,):
            raise ValueError("keep mask must have one flag per row")
        block = a._cached(("keep", kept.tobytes()), lambda: kept[rows] & kept[cols])
        data, number = np.where(block, data, 0.0), np.cumsum(kept) - 1   # x + 0.0 is x
    diag = a.diagonal()[kept]
    scale = max(float(data.max()), -float(data.min())) if a.nnz else 1.0
    tol = rel_tol * max(scale, 1e-300)

    positive = np.flatnonzero(data > tol)
    off_bad = positive[rows[positive] != cols[positive]]
    diag_bad = np.flatnonzero(diag <= tol)
    violations = np.column_stack((
        np.concatenate((number[rows[off_bad]], diag_bad)),
        np.concatenate((number[cols[off_bad]], diag_bad)),
        np.concatenate((data[off_bad], diag[diag_bad])),
    ))

    colsum = np.bincount(cols, weights=data, minlength=a.n)[kept]
    col_bad = np.flatnonzero(colsum < -tol)
    column_violations = np.column_stack((col_bad, colsum[col_bad]))

    return MMatrixReport(
        offdiag_sign_ok=off_bad.size == 0,
        column_weak_dominance_ok=diag_bad.size == 0 and col_bad.size == 0,
        strict_column_exists=bool(np.any(colsum > tol)),
        violations=violations,
        column_violations=column_violations,
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
    sel = keep[a.rows()] & keep[a.indices]
    kept_before = np.concatenate(([0], np.cumsum(sel)))   # = new slot of a kept entry
    # the renumbering is monotone, so each row's columns stay sorted
    new_index = np.cumsum(keep) - 1
    indptr = kept_before[a.indptr[np.append(np.flatnonzero(keep), a.n)]]
    return SparseMatrix(indptr.size - 1, indptr, new_index[a.indices[sel]], a.data[sel],
                        _checked=True)
