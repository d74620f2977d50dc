"""Global operators for the coupled potential/concentration system.

fem and supg live on one sparsity pattern per mesh (node adjacency), built once from the
mesh edges by one sort with the stiffness as its data (at n = 32 only its int32 element-edge
slots, 9 MiB, have their own mapping); the potential operator and eafe on it pruned of the
zero-weight edges (``_EdgeTable``, built on first use).  Every operator is a sum of edge
values, each diagonal entry minus the rest of its column: the stiffness -sum omega_e per
mesh edge, the concentration operators their transport.  Every system solved has identity
rows on ``mesh.boundary``, all written by ``_identity_rows`` from the diagonal slots.
Polynomial integrands are integrated in closed form; other fields from values
sampled at ``quadrature_points``, by the caller or, per block, ``integrate_fields``.

The three concentration operators share one entry point, ``assemble_np``,
and the contract

    matrix = lumped mass + tau * transport(phi)

where ``transport`` is the plain Galerkin convection-diffusion operator, its
streamline-stabilized variant, or the exponentially fitted (edge-averaged)
operator.  One call assembles both species at one potential: they differ only
through their drift c, so d_i = grad(phi_h).grad(psi_i), the supg parameter
and the Bernoulli values are computed once (the last two once per distinct
|c|).  fem and supg sum element-edge values, vol_K d_i = sum_j omega_ij
(phi_i - phi_j) from the mesh's edge weights; eafe sums mesh-edge values.
supg also changes the right-hand side, by the one per-element load of
``stab_source_vector``.  With a zero potential all three collapse to
mass + tau * A_L, which is the normative check pinning all sign and index
conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SparseMatrix
from .mesh import _BLOCK, LOCAL_EDGES, BoxMesh, _mapped_zeros
from .quadrature import rule_for_order

__all__ = [
    "SchemeConfig",
    "AssembledNP",
    "assemble_stiffness",
    "lumped_volumes",
    "potential_system",
    "concentration_preconditioner",
    "quadrature_points",
    "assemble_load",
    "element_integrals",
    "integrate_fields",
    "bernoulli",
    "assemble_np",
    "stab_source_vector",
]

SCHEMES = ("fem", "supg", "eafe")
#: (row, column) corners of the 12 directed local edges: LOCAL_EDGES, then each reversed.
_EDGE_ENDS = np.array(LOCAL_EDGES + tuple(e[::-1] for e in LOCAL_EDGES)).T
#: (6, 4) signed incidence D of LOCAL_EDGES, +1 at nu and -1 at mu: S_K = D^T diag(omega_K) D.
_INCIDENCE = np.eye(4)[_EDGE_ENDS[0, :6]] - np.eye(4)[_EDGE_ENDS[1, :6]]


@dataclass
class SchemeConfig:
    """Discretization choice plus the per-species physics coefficients.

    ``charges`` couples each species into the potential equation;
    ``drift`` multiplies the potential gradient in that species' flux.  They
    coincide in the plain dimensionless model but differ in the semiconductor
    benchmark, hence two fields.
    """

    scheme: str = "fem"
    charges: tuple[float, float] = (1.0, -1.0)
    drift: tuple[float, float] = (1.0, -1.0)
    supg_scale: float = 1.0
    linear_tol: float = 1e-10
    linear_maxit: int = 5000

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if len(self.charges) != 2 or len(self.drift) != 2:
            raise ValueError("exactly two species are supported")
        if not all(np.isfinite(c) for c in self.charges + self.drift):
            raise ValueError("charges and drift coefficients must be finite")
        if not self.supg_scale > 0:
            raise ValueError("supg_scale must be positive")
        if not self.linear_tol > 0:
            raise ValueError("linear_tol must be positive")


class _Workspace:
    """Per-mesh assembly cache, built from the mesh edges: pattern, slots, constant data.

    Mesh edge k joins nodes ``ends[0][k] < ends[1][k]``, has slots ``upper[k]``
    and ``lower[k]`` for (a, b) and (b, a) and ``weight[k]``, the sum of omega
    over its tets: the stiffness, the pattern's data, is -weight there, with zero column
    sums.  ``edge_slots`` (2, 6, M), int32 below 2^31 entries, holds per LOCAL_EDGES
    (nu, mu) the slots of (nu, mu), (mu, nu).  Arrays that grow with M are ``_mapped_zeros``
    arrays, filled in place; at n = 32 only ``edge_slots`` (9 MiB) is mapped.
    """

    __slots__ = ("pattern", "edge_slots", "diag_slots", "fixed_slots", "ends", "weight", "upper",
                 "lower", "lumped", "_edges", "_potential")

    def __init__(self, mesh: BoxMesh):
        geo, tets, n = mesh.geometry, mesh.tets, mesh.n_nodes
        self.lumped = np.bincount(tets.ravel(), weights=np.repeat(geo.volumes, 4), minlength=n)
        corners = np.ascontiguousarray(tets.T)                                     # (4, M)
        inverse = np.empty((len(tets), 6), np.int64)   # (M, 6) as omega: edge keys, then edges
        for e, (nu, mu) in enumerate(LOCAL_EDGES):
            lo, hi = np.minimum(corners[nu], corners[mu]), np.maximum(corners[nu], corners[mu])
            np.add(lo * n, hi, out=inverse[:, e])
        del corners
        flat = inverse.reshape(-1)
        order = np.argsort(flat, kind="stable")
        run = flat[order]                          # the sorted keys, then their edge numbers
        new = np.concatenate(([True], run[1:] != run[:-1]))
        keys, new[0] = run[new], False
        run[:] = new                                   # counted in place: no int64 temporary
        flat[order] = np.cumsum(run, out=run)
        del order, run, new
        self.ends = a, b = np.divmod(keys, n, out=(_mapped_zeros(keys.shape, np.int64),
                                                  _mapped_zeros(keys.shape, np.int64)))
        degree = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
        if not degree.all():
            raise AssertionError("mesh has nodes that belong to no element")
        # the N diagonal, E upper and E lower keys, sorted once into CSR order
        nodes = np.arange(n)
        order = np.argsort(np.concatenate((nodes * (n + 1), keys, b * n + a)))
        slot = _mapped_zeros(order.shape, np.int64)
        slot[order] = np.arange(order.size)
        self.diag_slots, self.upper, self.lower = np.split(slot, (n, n + keys.size))
        data = _mapped_zeros(order.size)
        self.pattern = SparseMatrix(n, np.concatenate(([0], np.cumsum(degree + 1))),
                                    np.take(np.concatenate((nodes, b, a)), order, mode="clip",
                                            out=_mapped_zeros(order.shape, np.int64)),
                                    data, _checked=True)   # np.take "raise" writes via a copy
        del order, slot, keys
        self.weight = w = _mapped_zeros(a.size)
        w[:] = np.bincount(flat, weights=geo.omega.ravel(), minlength=a.size)    # tet-major sums
        data[self.upper] = data[self.lower] = -w
        data[self.diag_slots] = np.bincount(a, w, n) + np.bincount(b, w, n)   # zero column sums
        # (nu, mu) of a tet is its edge's (a, b) where tets[nu] < tets[mu], else (b, a)
        self.edge_slots = slots = _mapped_zeros((2, 6, len(tets)),
                                                np.int32 if data.size < 2**31 else np.int64)
        for e, (nu, mu) in enumerate(LOCAL_EDGES):
            upper, lower = self.upper[inverse[:, e]], self.lower[inverse[:, e]]
            slots[0, e] = np.where(tets[:, nu] < tets[:, mu], upper, lower)
            slots[1, e] = upper + lower - slots[0, e]                 # (nu, mu), (mu, nu)
        self.fixed_slots = None  # slots of the boundary rows, found by _identity_rows
        self._edges = None  # the _EdgeTable, built on first use by _edge_table
        self._potential = None  # potential_system(mesh), built on first use

    def from_edges(self, vals, out=None) -> np.ndarray:
        """Data of (12, M) values on the ``_EDGE_ENDS`` slots, in ``out`` if given.

        Each column sums to 0.  (6, M) values of a symmetric term are summed once, on the
        (nu, mu) slots, and each mesh edge's two slots get the sum of both.
        """
        data = np.empty(self.pattern.nnz) if out is None else out
        data.fill(0.0)
        np.add.at(data, self.edge_slots[:len(vals) // 6].ravel(), vals.ravel())
        if len(vals) == 6:
            data[self.upper] += data[self.lower]
            data[self.lower] = data[self.upper]
        data[self.diag_slots] = -np.bincount(self.pattern.indices, weights=data)
        return data


class _EdgeTable:
    """Mesh edges of nonzero weight and their slots in the weighted-edge pattern.

    An edge's weight, the sum of omega = -vol * grad(lambda_a) . grad(lambda_b)
    over its tets, is minus its stiffness entry.  Edges of weight exactly zero couple
    nothing and are pruned; negative ones stay.  Edges, weights, slots and the pattern's
    data, the stiffness, are the workspace's without them.  The potential operator and
    eafe share the pattern, its padded-row layout and ``fixed_slots``.
    """

    __slots__ = ("pattern", "a", "b", "weight", "upper", "lower", "diag_slots", "fixed_slots")

    def __init__(self, ws: _Workspace):
        full, kept = ws.pattern, ws.weight != 0.0
        upper, lower = ws.upper[kept], ws.lower[kept]
        keep = np.zeros(full.nnz, dtype=bool)
        keep[ws.diag_slots] = keep[upper] = keep[lower] = True
        kept_before = np.concatenate(([0], np.cumsum(keep)))   # = new slot of a kept entry
        self.pattern = SparseMatrix(full.n, kept_before[full.indptr], full.indices[keep],
                                    full.data[keep], _checked=True)
        (self.a, self.b), self.weight = (e[kept] for e in ws.ends), ws.weight[kept]
        self.upper, self.lower = kept_before[upper], kept_before[lower]
        self.diag_slots, self.fixed_slots = kept_before[ws.diag_slots], None

    def transport(self, phi: np.ndarray, drift) -> list[np.ndarray]:
        """Per c in ``drift``, entry (a, b) is -weight * B(c (phi_a - phi_b)).

        Entries go straight into their slots; one bincount over (a, b) puts minus them on the
        diagonal, so columns sum to 0 as in ``_Workspace.from_edges``.  B(-|t|) = B(|t|) + |t|
        saves the second Bernoulli evaluation and, unlike B(t) - t, does not
        cancel: at t = -30 that would keep about 3 digits.  Both depend on c only
        through |c|, so ``bernoulli`` runs once per distinct |c|; for c_2 = -c_1
        the forward and backward weights swap.
        """
        dphi, ends, out = phi[self.a] - phi[self.b], np.concatenate((self.a, self.b)), []
        t_abs = {m: m * np.abs(dphi) for m in {abs(c) for c in drift}}
        b_pos = {m: bernoulli(t) for m, t in t_abs.items()}
        for c in drift:
            b_neg, ahead = b_pos[abs(c)] + t_abs[abs(c)], c * dphi >= 0.0
            w_fwd = self.weight * np.where(ahead, b_pos[abs(c)], b_neg)   # weight * B(t)
            w_bwd = self.weight * np.where(ahead, b_neg, b_pos[abs(c)])   # weight * B(-t)
            data = np.zeros(self.pattern.nnz)
            data[self.upper], data[self.lower] = -w_fwd, -w_bwd
            data[self.diag_slots] = np.bincount(ends, np.concatenate((w_bwd, w_fwd)), len(phi))
            out.append(data)
        return out


class _GridSolver:
    """Exact solve with the interior stiffness block of a ``build_box_mesh`` box.

    The orthonormal DST-I along each axis diagonalises that block, the separable
    7-point stencil: 2(a_x + a_y + a_z) on the diagonal, -a_d one lattice step
    along axis d (Saad, *Iterative Methods for Sparse Linear Systems*, 2nd ed.,
    fast Poisson solvers).  Dense sine matrices by matmul: O(m^4), m nodes per axis.
    """

    __slots__ = ("free", "shape", "coupling", "sines", "eig")

    def __init__(self, free, shape, coupling):
        self.free, self.shape, self.coupling = free, shape, coupling
        k = [np.arange(1, n + 1) for n in shape]
        self.sines = [np.sqrt(2 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))
                      for n, j in zip(shape, k)]
        lam = [a * (2 - 2 * np.cos(np.pi * j / (n + 1))) for a, n, j in zip(coupling, shape, k)]
        self.eig = lam[0][:, None, None] + lam[1][:, None] + lam[2]

    def solve(self, r: np.ndarray, eig=None) -> np.ndarray:
        """u on the free rows with S diag(eig) S u = r[free], eig the interior block's if None."""
        (sx, sy, sz), u = self.sines, r[self.free].reshape(self.shape)
        for scale in (self.eig if eig is None else eig, 1.0):   # the sine matrices are symmetric
            u = (sy @ (sx @ u.reshape(len(sx), -1)).reshape(self.shape)) @ sz / scale
        return u.ravel()


def _workspace(mesh: BoxMesh) -> _Workspace:
    if mesh._workspace is None:
        mesh._workspace = _Workspace(mesh)
    return mesh._workspace


def _edge_table(ws: _Workspace) -> _EdgeTable:
    if ws._edges is None:
        ws._edges = _EdgeTable(ws)
    return ws._edges


def _grid_solver(mesh: BoxMesh, a: SparseMatrix) -> _GridSolver | None:
    """The _GridSolver of the interior block of ``a`` on a ``build_box_mesh`` lattice, or None.

    Node k is lattice point unravel_index(k, (m, m, m)), m = ``mesh._lattice``, and ``boundary``
    its shell; a_d is minus the entry of row (1, 1, 1) at column offset m^2, m or 1, one step
    along x, y, z.  No other entry is read: CG verifies the true residual of every solve.
    """
    if (m := mesh._lattice) is None or m < 3:   # unset on meshes not built by build_box_mesh
        return None
    r = (m + 1) * m + 1                                              # row of node (1, 1, 1)
    row = slice(a.indptr[r], a.indptr[r + 1])
    coupling = np.array([-a.data[row][a.indices[row] - r == s].sum() for s in (m * m, m, 1)])
    return _GridSolver(np.flatnonzero(~mesh.boundary), (m - 2,) * 3, coupling)


def potential_system(mesh: BoxMesh) -> tuple[SparseMatrix, _GridSolver | None]:
    """The potential operator of ``mesh`` and its exact solver, built once.

    Returns the stiffness on the pattern of ``_EdgeTable`` with identity rows on
    ``mesh.boundary`` and, on a ``build_box_mesh`` lattice, the DST-I solver of its
    interior block (None elsewhere).
    Built once per mesh, with read-only arrays; every potential solve uses it.
    """
    ws = _workspace(mesh)
    if ws._potential is None:
        edges = _edge_table(ws)
        a = edges.pattern.with_data(edges.pattern.data.copy())
        _identity_rows(edges, mesh.boundary, [a.data])
        ws._potential = (a, _grid_solver(mesh, a))
        for array in (a.data, a.indptr, a.indices):
            array.flags.writeable = False
    return ws._potential


def concentration_preconditioner(mesh: BoxMesh, phi: np.ndarray, cfg: SchemeConfig, tau: float):
    """Right preconditioner r -> M^-1 r of both species' systems at ``phi``, or None (Jacobi).

    On a grid box M is their zero-drift operator, m I + tau K (m the mean interior lumped
    mass / 4, K the interior stiffness block; one DST-I solve) on the free rows and I on the
    others, used while the edge Peclet number max|c| max|phi_a - phi_b| over mesh edges (at
    most max|c| times the range of phi) is at most 1, where drift perturbs M little.
    """
    ws, grid, c = _workspace(mesh), potential_system(mesh)[1], max(map(abs, cfg.drift))
    a, b = ws.ends
    if grid is None or c * np.ptp(phi) > 1 and c * np.abs(phi.take(a) - phi.take(b)).max() > 1:
        return None
    eig = ws.lumped[grid.free].mean() / 4.0 + tau * grid.eig

    def apply(r):
        u = r.copy()
        u[grid.free] = grid.solve(r, eig)
        return u
    return apply


def assemble_stiffness(mesh: BoxMesh) -> SparseMatrix:
    """Stiffness matrix of the potential equation: symmetric, zero row sums, no boundary rows."""
    ws = _workspace(mesh)
    return ws.pattern.with_data(ws.pattern.data.copy())


def _identity_rows(space, boundary: np.ndarray, datas) -> None:
    """Zero the mesh's ``boundary`` rows of each ``space.pattern`` data array, 1 on the diagonal."""
    if space.fixed_slots is None:   # the rows' slots, found once per pattern
        space.fixed_slots = np.flatnonzero(boundary[space.pattern.rows()])
    diag = space.diag_slots[boundary]
    for data in datas:
        data[space.fixed_slots] = 0.0
        data[diag] = 1.0


def lumped_volumes(mesh: BoxMesh) -> np.ndarray:
    """Per-node support volumes: total volume of the tets touching the node."""
    return _workspace(mesh).lumped.copy()


def quadrature_points(mesh: BoxMesh, order: int = 2) -> np.ndarray:
    """Points of the degree-``order`` rule, (M*Q, 3), element by element."""
    pts, _ = rule_for_order(order)
    return (pts @ mesh.nodes[mesh.tets]).reshape(-1, 3)


def _per_element(mesh: BoxMesh, values, order: int):
    """The rule and ``values`` (..., M*Q) reshaped to (..., M, Q)."""
    pts, wts = rule_for_order(order)
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != (mesh.n_tets * wts.size,):
        raise ValueError(f"values must end in M*Q = {mesh.n_tets * wts.size}, got {values.shape}")
    return pts, wts, values.reshape(*values.shape[:-1], mesh.n_tets, wts.size)


def assemble_load(mesh: BoxMesh, values, order: int = 2) -> np.ndarray:
    """Load vectors with components (g, psi_k), (..., M*Q) -> (..., N).

    ``values`` samples g at ``quadrature_points(mesh, order)``; leading axes
    stack fields and each is assembled exactly as it would be on its own.
    """
    bary, wts, gvals = _per_element(mesh, values, order)
    local = gvals @ (wts[:, None] * bary)  # (..., M, 4)
    local *= mesh.geometry.volumes[:, None]
    loads = [
        np.bincount(mesh.tets.ravel(), weights=row, minlength=mesh.n_nodes)
        for row in local.reshape(-1, mesh.n_tets * 4)
    ]
    return np.reshape(loads, (*gvals.shape[:-2], mesh.n_nodes))


def element_integrals(mesh: BoxMesh, values, order: int = 2) -> np.ndarray:
    """Per-element integrals of sampled fields, (..., M*Q) -> (..., M)."""
    _, wts, gvals = _per_element(mesh, values, order)
    return mesh.geometry.volumes * (gvals @ wts)


def integrate_fields(mesh: BoxMesh, fields, per_element: bool = False, order: int = 2):
    """Loads (K, N) and, if ``per_element`` (else None), element integrals (K, M) of the K
    fields ``fields(points)`` returns, called per block of ``_BLOCK`` elements at their points.
    """
    bary, wts = rule_for_order(order)
    loads, per_tet = 0.0, []
    for lo in range(0, mesh.n_tets, _BLOCK):
        tets, vol = mesh.tets[lo:lo + _BLOCK], mesh.geometry.volumes[lo:lo + _BLOCK]
        vals = np.asarray(fields((bary @ mesh.nodes[tets]).reshape(-1, 3)), dtype=float)
        vals = vals.reshape(len(vals), len(tets), wts.size) * vol[:, None]       # (K, B, Q)
        if per_element:
            per_tet.append(vals @ wts)
        local = (vals @ (wts[:, None] * bary)).reshape(len(vals), -1)              # (K, B * 4)
        loads = loads + np.array([np.bincount(tets.ravel(), r, mesh.n_nodes) for r in local])
    return loads, np.concatenate(per_tet, axis=1) if per_element else None


def bernoulli(t):
    """Numerically stable B(t) = t / (exp(t) - 1).

    Series branch below |t| = 1e-3, direct evaluation through expm1 in the
    mid range, and the asymptotic tail t * exp(-t) beyond t = 700 where the
    denominator would overflow.  Strictly positive and monotone decreasing.
    """
    arr = np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):   # 0 / 0 and overflow: the series and tail entries follow
        out = np.divide(arr, np.expm1(arr), out=np.empty_like(arr))
        small, large = np.abs(arr) <= 1e-3, arr > 700.0
        ts, tl = arr[small], arr[large]
        t2 = ts * ts
        out[small] = 1.0 - ts / 2.0 + t2 / 12.0 - t2 * t2 / 720.0
        out[large] = tl * np.exp(-tl)
    if np.ndim(t) == 0:
        return float(out)
    return out


@dataclass
class AssembledNP:
    """One species' concentration system for a single implicit step.

    ``assemble_np`` returns one per species, in ``SchemeConfig.drift`` order.
    ``matrix`` is mass + tau * transport, with identity rows on
    ``mesh.boundary``.  For supg, ``stab_grad_weights`` holds
    w_K.grad(psi_i), one weight per element corner, with which
    ``stab_source_vector`` builds the scheme's right-hand-side term; None for
    fem and eafe.
    """

    matrix: SparseMatrix
    stab_grad_weights: np.ndarray | None = None


def stab_source_vector(mesh: BoxMesh, assembled: AssembledNP, elem_int: np.ndarray) -> np.ndarray:
    """The supg load sum_K (w_K.grad psi_i) elem_int_K of a supg system.

    With elem_int_K = int_K (p^n_h + tau F) this is all the scheme adds to
    tau * load + mass * p^n: w_K.grad psi_i is constant on K, so it is the
    time term (p^n_h, w_K.grad psi_i) plus tau (F, w_K.grad psi_i).
    """
    w = assembled.stab_grad_weights * np.asarray(elem_int, dtype=float)[:, None]
    return np.bincount(mesh.tets.ravel(), weights=w.ravel(), minlength=mesh.n_nodes)


def assemble_np(mesh: BoxMesh, phi: np.ndarray, cfg: SchemeConfig,
                tau: float, buffers: dict | None = None) -> list[AssembledNP]:
    """Both species' systems, lumped mass + tau * transport(phi), in cfg.drift order.

    The species differ only through their drift c, so the phi-dependent work
    is done once.  d_i = grad(phi_h).grad(psi_i) is constant on each tet K and
    sums to 0 there, so fem and supg sum their transport over element edges
    (nu, mu), and ``from_edges`` sets each diagonal entry to zero its column.
    With dphi = D phi_K and w = omega dphi, vol_K d = D^T w and vol_K |grad
    phi_h|^2 = sum_e w_e dphi_e, clamped at 0.  Entry (nu, mu) gets c r_nu,
    r = (tau - c_K) vol_K d / 4 (c_K = 0 for fem), gathered at the 12 row corners from
    D^T w: tau c C(phi) plus supg's time rows.  supg adds the symmetric streamline
    term tau c^2 c_K vol_K d_nu d_mu (summed once per element edge, put on both
    slots), with c_K, r and it once per distinct |c|, and returns
    w_K.grad(psi_i) = -c c_K d_i for ``stab_source_vector``.  eafe is the
    edge-averaged operator on the weighted-edge pattern of ``_EdgeTable``.  The
    mass stays lumped: positive off-diagonal entries of a consistent mass would
    break the eafe column M-matrix property.  With ``buffers``, a dict a run keeps, supg
    writes its (k, M) and nnz-sized arrays, the returned ones too, into arrays mapped there
    on first use, which the next call overwrites: its sweeps then take no fresh pages.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (mesh.n_nodes,):
        raise ValueError(f"phi must have one entry per node ({mesh.n_nodes}), got {phi.shape}")
    if not tau > 0:
        raise ValueError("tau must be positive")
    ws = _workspace(mesh)
    stab_w = [None, None]
    if cfg.scheme == "eafe":
        space = _edge_table(ws)
        datas = [tau * t for t in space.transport(phi, cfg.drift)]
    elif cfg.scheme == "fem":
        space, geo = ws, mesh.geometry
        dphi = _INCIDENCE @ phi[mesh.tets.T]                     # (6, M): phi_nu - phi_mu
        dphi *= geo.omega.T                    # w = omega dphi, in place: one (6, M) array fewer
        conv = ws.from_edges(np.take((0.25 * tau * _INCIDENCE.T) @ dphi, _EDGE_ENDS[0], axis=0))
        datas = [tau * ws.pattern.data + c * conv for c in cfg.drift]
    else:
        def keep(name, shape):   # buffers[name], mapped on first use; without buffers, new
            if buffers is None:
                return np.empty(shape)
            if name not in buffers:
                buffers[name] = _mapped_zeros(shape, least=0)
            return buffers[name]

        space, geo, six, nnz = ws, mesh.geometry, (6, mesh.n_tets), ws.pattern.nnz
        dphi = np.matmul(_INCIDENCE, phi[mesh.tets.T], out=keep("dphi", six))
        w = np.multiply(geo.omega.T, dphi, out=keep("w", six))           # vol_K d = D^T w
        speed = np.sqrt(np.maximum(np.einsum("em,em->m", w, dphi), 0.0) / geo.volumes)
        vd = np.matmul(_INCIDENCE.T, w, out=keep("vd", (4, mesh.n_tets)))      # vol_K d_i
        vd_row = np.take(vd, _EDGE_ENDS[0], axis=0, mode="clip",   # "raise" writes via a copy
                         out=keep("vd_row", (12, mesh.n_tets)))          # at the row corners
        vv = np.multiply(vd_row[:6], vd_row[6:], out=dphi)
        vv /= geo.volumes                                                 # vol_K d_nu d_mu
        base = np.multiply(ws.pattern.data, tau, out=keep("base", nnz))
        h_k, datas = geo.diameters, [keep(i, nnz) for i in range(2)]
        for k, m in enumerate({abs(c) for c in cfg.drift}):   # c_K, stream term: only |c|
            cs = m * speed                                                 # |c grad(phi)| per tet
            c_k = np.where(0.5 * h_k * cs >= 1.0,                          # cell Peclet number
                           cfg.supg_scale * h_k / (2.0 * np.where(cs > 0.0, cs, 1.0)),
                           cfg.supg_scale * h_k * h_k / 4.0)
            if k:                                      # vd_row was scaled for the first |c|
                np.take(vd, _EDGE_ENDS[0], axis=0, mode="clip", out=vd_row)
            rows = ws.from_edges(np.multiply(vd_row, 0.25 * (tau - c_k), out=vd_row),
                                 keep("rows", nnz))
            stream = ws.from_edges(np.multiply(vv, (tau * m * m) * c_k, out=w),
                                   keep("stream", nnz))
            for i, c in enumerate(cfg.drift):
                if abs(c) == m:
                    stab_w[i] = np.multiply(-c * c_k / geo.volumes, vd,    # w_K.grad(psi_i)
                                            out=keep(("stab", i), vd.shape)).T
                    np.add(np.multiply(rows, c, out=datas[i]), base, out=datas[i])
                    datas[i] += stream
    for data in datas:
        data[space.diag_slots] += ws.lumped / 4.0
    _identity_rows(space, mesh.boundary, datas)
    return [AssembledNP(space.pattern.with_data(data), w) for data, w in zip(datas, stab_w)]
