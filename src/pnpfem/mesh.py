"""Structured tetrahedral meshes of axis-aligned boxes.

Boxes are subdivided into a uniform grid of cells and each cell is cut into
six tetrahedra sharing the cell's main diagonal (Kuhn / Freudenthal
subdivision).  That keeps the triangulation face-to-face across neighbouring
cells and fixes node and element numbering, which in turn makes every
assembled sparsity pattern reproducible bit for bit.

Besides connectivity, the mesh exposes per-element geometry: element volumes,
gradients of the barycentric coordinates, and the edge weights

    omega[e] = -volume * (grad_lambda[mu] . grad_lambda[nu])

for each of the six local edges e = (nu, mu).  Positivity of these weights is
the mesh condition under which the exponentially fitted scheme produces a
column M-matrix; ``mesh_quality_report`` makes their sign pattern explicit
instead of assuming anything about the mesh.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LOCAL_EDGES",
    "DegenerateTetError",
    "BoxMesh",
    "build_box_mesh",
    "MeshQualityReport",
    "mesh_quality_report",
    "dump_mesh",
]

#: Local vertex pairs (nu, mu) of the six edges of a tetrahedron, nu < mu.
LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class DegenerateTetError(ValueError):
    """A tetrahedron has zero or negative volume under its stored order."""


class _MeshGeometry:
    """Vectorized per-element geometry for a whole mesh."""

    __slots__ = ("volumes", "grad_lambda", "omega", "diameters")

    def __init__(self, nodes: np.ndarray, tets: np.ndarray):
        corners = nodes[tets]                      # (M, 4, 3)
        u = corners[:, 1] - corners[:, 0]
        v = corners[:, 2] - corners[:, 0]
        w = corners[:, 3] - corners[:, 0]
        det6 = np.einsum("md,md->m", u, np.cross(v, w))
        bad = np.flatnonzero(det6 <= 0.0)
        if bad.size:
            raise DegenerateTetError(
                f"tet {bad[0]} has nonpositive volume {det6[bad[0]] / 6.0:g} "
                f"({bad.size} offending tets in total)"
            )
        grad = np.empty((tets.shape[0], 4, 3))
        grad[:, 1] = np.cross(v, w) / det6[:, None]
        grad[:, 2] = np.cross(w, u) / det6[:, None]
        grad[:, 3] = np.cross(u, v) / det6[:, None]
        grad[:, 0] = -(grad[:, 1] + grad[:, 2] + grad[:, 3])

        self.volumes = det6 / 6.0
        self.grad_lambda = grad
        omega = np.empty((tets.shape[0], 6))
        for e, (nu, mu) in enumerate(LOCAL_EDGES):
            dots = np.einsum("md,md->m", grad[:, mu], grad[:, nu])
            omega[:, e] = -self.volumes * dots
        self.omega = omega

        diam = np.zeros(tets.shape[0])
        for nu, mu in LOCAL_EDGES:
            np.maximum(
                diam,
                np.linalg.norm(corners[:, mu] - corners[:, nu], axis=1),
                out=diam,
            )
        self.diameters = diam


class BoxMesh:
    """Tetrahedral mesh: node coordinates, connectivity and boundary flags.

    Instances are immutable after construction and safe to share between
    threads.  ``nodes`` is (N, 3) float, ``tets`` is (M, 4) int with positive
    orientation and ``boundary`` flags the Dirichlet nodes.  Element geometry
    is computed on first use.
    """

    def __init__(self, nodes, tets, boundary):
        nodes = np.ascontiguousarray(nodes, dtype=float)
        tets = np.ascontiguousarray(tets, dtype=np.int64)
        boundary = np.ascontiguousarray(boundary, dtype=bool)
        if nodes.ndim != 2 or nodes.shape[1] != 3:
            raise ValueError("nodes must be an (N, 3) array")
        if tets.ndim != 2 or tets.shape[1] != 4:
            raise ValueError("tets must be an (M, 4) array")
        if boundary.shape != (nodes.shape[0],):
            raise ValueError("boundary must be an (N,) flag array")
        if tets.size and (tets.min() < 0 or tets.max() >= nodes.shape[0]):
            raise ValueError("tet connectivity references nonexistent nodes")

        self.nodes = nodes
        self.tets = tets
        self.boundary = boundary

        self._geometry: _MeshGeometry | None = None
        self._workspace = None  # assembly pattern cache, set by pnpfem.assembly

        for arr in (self.nodes, self.tets, self.boundary):
            arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_tets(self) -> int:
        return self.tets.shape[0]

    @property
    def geometry(self) -> _MeshGeometry:
        """Per-element volumes, barycentric gradients and edge weights."""
        if self._geometry is None:
            self._geometry = _MeshGeometry(self.nodes, self.tets)
        return self._geometry

    @property
    def h(self) -> float:
        """Mesh size: the largest element diameter."""
        return float(self.geometry.diameters.max())

    @classmethod
    def from_cells(cls, nodes, tets, boundary=None) -> "BoxMesh":
        """Build a mesh from explicit arrays (synthetic/test meshes).

        Without an explicit ``boundary`` every node is flagged as boundary,
        which is the correct default for the tiny hand-built meshes this is
        meant for.
        """
        nodes = np.asarray(nodes, dtype=float)
        if boundary is None:
            boundary = np.ones(nodes.shape[0], dtype=bool)
        return cls(nodes, tets, boundary)


def _perm_sign(perm) -> int:
    inversions = sum(
        1
        for a, b in itertools.combinations(range(len(perm)), 2)
        if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


_KUHN_CORNERS = []
for _perm in itertools.permutations((0, 1, 2)):
    _c0 = np.zeros(3, dtype=np.int64)
    _c1 = _c0.copy()
    _c1[_perm[0]] = 1
    _c2 = _c1.copy()
    _c2[_perm[1]] = 1
    _c3 = np.ones(3, dtype=np.int64)
    if _perm_sign(_perm) > 0:
        _KUHN_CORNERS.append(np.stack([_c0, _c1, _c2, _c3]))
    else:
        # odd permutation: swap the two middle vertices to restore
        # positive orientation
        _KUHN_CORNERS.append(np.stack([_c0, _c2, _c1, _c3]))
_KUHN_CORNERS = np.stack(_KUHN_CORNERS)           # (6, 4, 3) corner offsets


def build_box_mesh(n: int, lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)) -> BoxMesh:
    """Mesh the box [lo, hi] with n subdivisions per axis, 6 tets per cell.

    Nodes are numbered lexicographically in (x, y, z); each cell contributes
    its six Kuhn tetrahedra in a fixed permutation order, so repeated calls
    produce identical meshes.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != (3,) or hi.shape != (3,):
        raise ValueError("lo and hi must be 3D points")
    if not np.all(hi > lo):
        raise ValueError(f"degenerate box: need hi > lo componentwise, got {lo} .. {hi}")

    m = n + 1
    axes = [np.linspace(lo[d], hi[d], m) for d in range(3)]
    grid = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.ravel() for g in grid], axis=1)

    idx = np.arange(m)
    on_face = (idx == 0) | (idx == n)
    bx, by, bz = np.meshgrid(on_face, on_face, on_face, indexing="ij")
    boundary = (bx | by | bz).ravel()

    cells = np.stack(
        np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij"),
        axis=-1,
    ).reshape(-1, 3)                               # (n^3, 3) cell origins
    # corner lattice coordinates: (n^3, 6, 4, 3) -> node ids
    corner_ijk = cells[:, None, None, :] + _KUHN_CORNERS[None, :, :, :]
    ids = (corner_ijk[..., 0] * m + corner_ijk[..., 1]) * m + corner_ijk[..., 2]
    tets = ids.reshape(-1, 4)

    return BoxMesh(nodes, tets, boundary)


@dataclass
class MeshQualityReport:
    """Sign pattern of the edge weights omega over all elements.

    ``all_strictly_positive`` is the strong mesh condition (every weight
    positive).  The weaker condition actually needed for a monotone
    exponential-fitting operator is ``nonnegative`` together with
    ``tet_has_positive_edge``.
    """

    n_tets: int
    zero_tol: float
    positive_fraction: float
    all_strictly_positive: bool
    nonnegative: bool
    tet_has_positive_edge: bool
    per_tet_positive: np.ndarray
    violations: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def weak_condition(self) -> bool:
        """No negative weight and at least one positive weight per element."""
        return self.nonnegative and self.tet_has_positive_edge


def mesh_quality_report(mesh: BoxMesh, zero_tol: float | None = None) -> MeshQualityReport:
    """Classify every (tet, edge) weight as positive, zero or negative.

    ``violations`` lists the pairs that break the strict positivity
    condition, i.e. weights <= zero_tol.  Raises ``DegenerateTetError`` for
    inverted elements.
    """
    omega = mesh.geometry.omega
    if zero_tol is None:
        scale = float(np.abs(omega).max()) if omega.size else 1.0
        zero_tol = 1e-14 * max(scale, 1e-300)
    positive = omega > zero_tol
    negative = omega < -zero_tol
    per_tet_positive = positive.sum(axis=1)

    bad = ~positive
    tet_idx, edge_idx = np.nonzero(bad)
    violations = [
        (int(t), int(e), float(omega[t, e])) for t, e in zip(tet_idx, edge_idx)
    ]
    return MeshQualityReport(
        n_tets=mesh.n_tets,
        zero_tol=zero_tol,
        positive_fraction=float(positive.mean()) if omega.size else 1.0,
        all_strictly_positive=bool(positive.all()),
        nonnegative=not bool(negative.any()),
        tet_has_positive_edge=bool((per_tet_positive > 0).all()),
        per_tet_positive=per_tet_positive,
        violations=violations,
    )


def dump_mesh(mesh: BoxMesh, target) -> None:
    """Write the mesh in plain text: header, one node and one tet per line."""
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    fh = open(target, "w") if own else target
    try:
        fh.write(f"nodes {mesh.n_nodes} tets {mesh.n_tets}\n")
        for x, y, z in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")
        for a, b, c, d in mesh.tets:
            fh.write(f"{a} {b} {c} {d}\n")
    finally:
        if own:
            fh.close()
