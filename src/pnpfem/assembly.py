"""Global operators for the coupled potential/concentration system.

All matrices live on one shared sparsity pattern per mesh (node adjacency),
built once and cached, so a scheme assembly is a handful of vectorized
element computations followed by a fixed-order scatter-add.  Entries whose
integrands are polynomial are integrated in closed form; source terms use a
degree-2 simplex quadrature rule unless the caller passes another order.

The three concentration operators share one entry point, ``assemble_np``,
and the contract

    matrix = lumped mass + tau * transport(phi)

where ``transport`` is the plain Galerkin convection-diffusion operator, its
streamline-stabilized variant, or the exponentially fitted (edge-averaged)
operator.  With a zero potential all three collapse to mass + tau * A_L,
which is the normative check pinning all sign and index conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SparseMatrix
from .mesh import LOCAL_EDGES, BoxMesh
from .quadrature import rule_for_order

__all__ = [
    "SchemeConfig",
    "AssembledNP",
    "assemble_stiffness",
    "apply_dirichlet_rows",
    "lumped_volumes",
    "assemble_convection",
    "assemble_load",
    "element_integrals",
    "bernoulli",
    "edge_harmonic_average",
    "assemble_np",
    "stab_source_vector",
]

SCHEMES = ("fem", "supg", "eafe")


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
    """Per-mesh assembly cache: CSR pattern, scatter slots, constant data."""

    __slots__ = (
        "pattern",
        "slots",
        "diag_slots",
        "bdry_entry_mask",
        "stiffness_data",
        "lumped",
    )

    def __init__(self, mesh: BoxMesh):
        tets = mesh.tets
        n = mesh.n_nodes
        keys = (tets[:, :, None] * n + tets[:, None, :]).ravel()
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        indices = unique_keys % n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(unique_keys // n, minlength=n), out=indptr[1:])
        self.pattern = SparseMatrix(
            n, indptr, indices, np.zeros(unique_keys.size), _checked=True
        )
        self.slots = inverse.reshape(tets.shape[0], 4, 4)
        diag_keys = np.arange(n, dtype=np.int64) * n + np.arange(n, dtype=np.int64)
        self.diag_slots = np.searchsorted(unique_keys, diag_keys)
        if not np.array_equal(unique_keys[self.diag_slots], diag_keys):
            raise AssertionError("mesh has nodes that belong to no element")
        self.bdry_entry_mask = mesh.boundary[self.pattern.rows()]

        geo = mesh.geometry
        gl = geo.grad_lambda
        local = geo.volumes[:, None, None] * np.einsum("mid,mjd->mij", gl, gl)
        self.stiffness_data = self._scatter(local)
        self.lumped = np.bincount(
            tets.ravel(),
            weights=np.repeat(geo.volumes, 4),
            minlength=n,
        )

    def _scatter(self, local_vals) -> np.ndarray:
        return np.bincount(
            self.slots.ravel(),
            weights=np.ascontiguousarray(local_vals).ravel(),
            minlength=self.pattern.nnz,
        )

    def matrix(self, data) -> SparseMatrix:
        return self.pattern.with_data(data)


def _workspace(mesh: BoxMesh) -> _Workspace:
    if mesh._workspace is None:
        mesh._workspace = _Workspace(mesh)
    return mesh._workspace


def assemble_stiffness(mesh: BoxMesh) -> SparseMatrix:
    """Stiffness matrix of the potential equation (no boundary treatment).

    Symmetric with zero row sums; apply ``apply_dirichlet_rows`` afterwards
    to pin constrained nodes.
    """
    ws = _workspace(mesh)
    return ws.matrix(ws.stiffness_data.copy())


def apply_dirichlet_rows(a: SparseMatrix, mask: np.ndarray) -> SparseMatrix:
    """Replace the rows flagged in ``mask`` by identity rows.

    The result shares the pattern of ``a``, so every flagged row must store
    its diagonal entry; the mesh workspace pattern stores all of them.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (a.n,):
        raise ValueError("mask must have one flag per row")
    rows = a.rows()
    data = np.where(mask[rows], 0.0, a.data)
    diag_entries = (rows == a.indices) & mask[rows]
    hit = np.zeros(a.n, dtype=bool)
    hit[a.indices[diag_entries]] = True
    missing = np.flatnonzero(mask & ~hit)
    if missing.size:
        raise ValueError(f"constrained row {missing[0]} has no stored diagonal entry")
    data[diag_entries] = 1.0
    return a.with_data(data)


def lumped_volumes(mesh: BoxMesh) -> np.ndarray:
    """Per-node support volumes: total volume of the tets touching the node."""
    return _workspace(mesh).lumped.copy()


def assemble_convection(mesh: BoxMesh, phi: np.ndarray) -> SparseMatrix:
    """Convection matrix C(phi)_ij = (psi_j grad(phi_h), grad(psi_i)).

    The potential gradient is constant per element and integral of psi_j is
    vol/4, so entries are exact.  Column sums vanish before boundary
    treatment.
    """
    phi = _check_dof(mesh, phi, "phi")
    ws = _workspace(mesh)
    geo = mesh.geometry
    gl = geo.grad_lambda
    gphi = np.einsum("mk,mkd->md", phi[mesh.tets], gl)
    rowvals = 0.25 * geo.volumes[:, None] * np.einsum("md,mid->mi", gphi, gl)
    local = np.broadcast_to(rowvals[:, :, None], (mesh.n_tets, 4, 4))
    return ws.matrix(ws._scatter(local))


def assemble_load(mesh: BoxMesh, g, t: float, order: int = 2) -> np.ndarray:
    """Load vector with components (g(., t), psi_k)."""
    pts, wts, gvals, vol = _eval_on_elements(mesh, g, t, order)
    bary = pts  # (Q, 4)
    local = vol[:, None] * (gvals @ (wts[:, None] * bary))  # (M, 4)
    return np.bincount(mesh.tets.ravel(), weights=local.ravel(), minlength=mesh.n_nodes)


def element_integrals(mesh: BoxMesh, g, t: float, order: int = 2) -> np.ndarray:
    """Per-element integrals of a scalar field."""
    _, wts, gvals, vol = _eval_on_elements(mesh, g, t, order)
    return vol * (gvals @ wts)


def _eval_on_elements(mesh: BoxMesh, g, t: float, order: int):
    pts, wts = rule_for_order(order)
    corners = mesh.nodes[mesh.tets]                      # (M, 4, 3)
    phys = np.einsum("qk,mkd->mqd", pts, corners)        # (M, Q, 3)
    gvals = np.asarray(g(phys.reshape(-1, 3), t), dtype=float).reshape(phys.shape[:2])
    return pts, wts, gvals, mesh.geometry.volumes


def bernoulli(t):
    """Numerically stable B(t) = t / (exp(t) - 1).

    Series branch below |t| = 1e-3, direct evaluation through expm1 in the
    mid range, and the asymptotic tail t * exp(-t) beyond t = 700 where the
    denominator would overflow.  Strictly positive and monotone decreasing.
    """
    arr = np.asarray(t, dtype=float)
    out = np.empty_like(arr)
    small = np.abs(arr) <= 1e-3
    large = arr > 700.0
    mid = ~small & ~large
    ts = arr[small]
    t2 = ts * ts
    out[small] = 1.0 - ts / 2.0 + t2 / 12.0 - t2 * t2 / 720.0
    out[mid] = arr[mid] / np.expm1(arr[mid])
    tl = arr[large]
    out[large] = tl * np.exp(-tl)
    if np.ndim(t) == 0:
        return float(out)
    return out


def edge_harmonic_average(a, b):
    """Inverse mean of exp along an edge with endpoint exponents a and b.

    Equals (b - a) / (exp(b) - exp(a)) for a != b and exp(-a) at a == b;
    evaluated as exp(-a) * B(b - a) to stay finite near coincident values.
    """
    a = np.asarray(a, dtype=float)
    return np.exp(-a) * bernoulli(np.asarray(b, dtype=float) - a)


@dataclass
class AssembledNP:
    """One species' concentration system for a single implicit step.

    ``matrix`` is mass + tau * transport (constrained rows already replaced
    by identity rows when requested).  The stabilized scheme additionally
    exposes the operators needed for its right-hand-side terms:
    ``stab_matrix`` applies to the previous concentration vector and
    ``stab_grad_weights`` (one weight per element corner) turns per-element
    source integrals into the stabilization load.
    """

    matrix: SparseMatrix
    stab_matrix: SparseMatrix | None = None
    stab_grad_weights: np.ndarray | None = None


def _check_dof(mesh: BoxMesh, v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (mesh.n_nodes,):
        raise ValueError(
            f"{name} must have one entry per node ({mesh.n_nodes}), got shape {v.shape}"
        )
    return v


def _supg_element_terms(mesh: BoxMesh, phi: np.ndarray, c_i: float, supg_scale: float):
    """Streamline matrices, time-difference row values and w_K.grad(psi_i)."""
    geo = mesh.geometry
    gl = geo.grad_lambda
    gphi = np.einsum("mk,mkd->md", phi[mesh.tets], gl)          # (M, 3)
    speed = np.abs(c_i) * np.linalg.norm(gphi, axis=1)          # |c grad(phi)| per tet
    h_k = geo.diameters
    peclet = 0.5 * h_k * speed
    safe = np.where(speed > 0.0, speed, 1.0)
    c_k = np.where(
        peclet >= 1.0,
        supg_scale * h_k / (2.0 * safe),
        supg_scale * h_k * h_k / 4.0,
    )
    w_k = -c_i * c_k[:, None] * gphi                            # (M, 3)
    d = np.einsum("md,mid->mi", gphi, gl)                       # grad(phi).grad(psi_i)
    wgrad = np.einsum("md,mid->mi", w_k, gl)                    # w_K.grad(psi_i)
    stream = np.einsum("m,mi,mj->mij", -c_i * geo.volumes, wgrad, d)
    svals = 0.25 * geo.volumes[:, None] * wgrad                 # (M, 4) row values
    return stream, svals, wgrad


def stab_source_vector(mesh: BoxMesh, assembled: AssembledNP, elem_int: np.ndarray) -> np.ndarray:
    """Stabilization load from per-element source integrals."""
    if assembled.stab_grad_weights is None:
        return np.zeros(mesh.n_nodes)
    w = assembled.stab_grad_weights * np.asarray(elem_int, dtype=float)[:, None]
    return np.bincount(mesh.tets.ravel(), weights=w.ravel(), minlength=mesh.n_nodes)


def _eafe_local(mesh: BoxMesh, phi: np.ndarray, c_i: float) -> np.ndarray:
    """Element matrices of the edge-averaged transport operator.

    Off-diagonal entries are -omega * B(c_i(phi_nu - phi_mu)) on the edge
    (nu, mu); diagonals are the negated column sums, so the transport part
    has exactly zero column sums before boundary treatment and reduces
    entrywise to the stiffness matrix at zero potential.
    """
    omega = mesh.geometry.omega
    phi_loc = phi[mesh.tets]
    vals = np.zeros((mesh.n_tets, 4, 4))
    for e, (nu, mu) in enumerate(LOCAL_EDGES):
        t_e = c_i * (phi_loc[:, nu] - phi_loc[:, mu])
        w = omega[:, e]
        b_fwd = w * bernoulli(t_e)
        b_bwd = w * bernoulli(-t_e)
        vals[:, nu, mu] -= b_fwd
        vals[:, mu, nu] -= b_bwd
        vals[:, nu, nu] += b_bwd
        vals[:, mu, mu] += b_fwd
    return vals


def assemble_np(
    mesh: BoxMesh,
    phi: np.ndarray,
    cfg: SchemeConfig,
    species: int,
    tau: float,
    apply_dirichlet: bool = True,
) -> AssembledNP:
    """One species' system, lumped mass + tau * transport(phi), for cfg.scheme.

    With c = ``cfg.drift[species]`` the transport is A_L + c C(phi) (fem),
    the same plus the residual-based element terms (supg; the operators of
    its source and previous-level parts are returned for the stepper), or
    the edge-averaged operator of ``_eafe_local`` (eafe).  The mass stays
    lumped: the positive off-diagonal entries of a consistent mass would
    break the column M-matrix property of the eafe matrix.
    """
    phi = _check_dof(mesh, phi, "phi")
    if not tau > 0:
        raise ValueError("tau must be positive")
    ws = _workspace(mesh)
    c_i = cfg.drift[species]
    data = np.zeros(ws.pattern.nnz)
    data[ws.diag_slots] = ws.lumped / 4.0
    if cfg.scheme == "eafe":
        data += tau * ws._scatter(_eafe_local(mesh, phi, c_i))
    else:
        data += tau * (ws.stiffness_data + c_i * assemble_convection(mesh, phi).data)
    stab = stab_w = None
    if cfg.scheme == "supg":
        stream, svals, stab_w = _supg_element_terms(mesh, phi, c_i, cfg.supg_scale)
        data += tau * ws._scatter(stream)
        s_data = ws._scatter(np.broadcast_to(svals[:, :, None], (mesh.n_tets, 4, 4)))
        data += s_data
        stab = ws.matrix(s_data)
    if apply_dirichlet:
        data = np.where(ws.bdry_entry_mask, 0.0, data)
        data[ws.diag_slots[mesh.boundary]] = 1.0
    return AssembledNP(ws.matrix(data), stab, stab_w)
