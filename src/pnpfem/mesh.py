"""Structured tetrahedral meshes of axis-aligned boxes.

Boxes are subdivided into a uniform grid of cells and each cell is cut into
six tetrahedra sharing the cell's main diagonal (Kuhn / Freudenthal
subdivision).  That keeps the triangulation face-to-face across neighbouring
cells and fixes node and element numbering, which in turn makes every
assembled sparsity pattern reproducible bit for bit.

Besides connectivity, the mesh exposes per-element volumes, diameters and the
edge weights, from barycentric gradients computed per block and not kept,

    omega[e] = -volume * (grad(lambda_mu) . grad(lambda_nu))

for each of the six local edges e = (nu, mu).  Positivity of these weights is
the mesh condition under which the exponentially fitted scheme produces a
column M-matrix; ``mesh_quality_report`` makes their sign pattern explicit
instead of assuming anything about the mesh.
"""

from __future__ import annotations

import itertools
import mmap
from dataclasses import dataclass

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
_BLOCK = 4096  # elements per block of the geometry and error-norm passes


def _mapped_zeros(shape, dtype=float, least=8 << 20) -> np.ndarray:
    """Zeros for an array kept as long as its mesh: its own memory mapping from ``least`` bytes.

    Left on the malloc heap, such arrays sit in the holes of the set-up temporaries, so where
    later large arrays fit, and the peak memory, would depend on the meshes before.  Smaller
    ones stay there: fresh pages cost more set-up time than their holes cost memory.  At
    n = 32 only omega and the workspace's int32 edge_slots are mapped, 9 MiB each; a run's
    supg ``assemble_np`` buffers are mapped at any size (``least=0``).
    """
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    if size < least:
        return np.zeros(shape, dtype)
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    return np.frombuffer(mmap.mmap(-1, size, flags=flags), dtype).reshape(shape)


class DegenerateTetError(ValueError):
    """A tetrahedron has zero or negative volume under its stored order."""


def _dot3(a, b) -> np.ndarray:
    """a . b over the leading axis of (3, M) arrays, in the order numpy's einsum sums 3 terms."""
    return a[0] * b[0] + a[2] * b[2] + a[1] * b[1]


def _gradients(x):
    """Barycentric gradients (4, 3, B) and volumes (B,) of the tets with corners x (3, 4, B)."""
    u, v, w = (x[:, k] - x[:, 0] for k in (1, 2, 3))
    g = np.empty((4, *u.shape))
    for i, (a, b) in enumerate(((v, w), (w, u), (u, v)), start=1):   # g_i = a x b
        for d, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
            np.subtract(a[j] * b[k], a[k] * b[j], out=g[i, d])
    det6 = _dot3(u, g[1])
    np.divide(g[1:], det6, out=g[1:], where=det6 > 0.0)   # degenerate tets: the caller raises
    np.negative(g[1] + g[2] + g[3], out=g[0])
    return g, det6 / 6.0


class _MeshGeometry:
    """Per-element geometry of a whole mesh, computed in blocks of ``_BLOCK`` elements.

    Each block's (3, 4, B) corners give its squared edge lengths and ``_gradients``; only
    volumes, diameters and omega (M, 6), the view of one (6, M) array, are kept, read-only.
    """

    __slots__ = ("volumes", "omega", "diameters")

    def __init__(self, nodes: np.ndarray, tets: np.ndarray):
        self.volumes, self.diameters = _mapped_zeros(len(tets)), _mapped_zeros(len(tets))
        omega = _mapped_zeros((len(LOCAL_EDGES), len(tets)))   # (6, M), C order
        for lo in range(0, len(tets), _BLOCK):
            blk = slice(lo, lo + _BLOCK)
            x = nodes.T[:, tets[blk].T]                    # (3, 4, B): axis, corner, element
            sq = np.zeros(x.shape[2])
            for nu, mu in LOCAL_EDGES:
                dx = x[:, mu] - x[:, nu]
                np.maximum(sq, dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2], out=sq)
            np.sqrt(sq, out=self.diameters[blk])
            g, self.volumes[blk] = _gradients(x)
            for e, (nu, mu) in enumerate(LOCAL_EDGES):
                np.multiply(-self.volumes[blk], _dot3(g[mu], g[nu]), out=omega[e, blk])
        bad = np.flatnonzero(self.volumes <= 0.0)
        if bad.size:
            raise DegenerateTetError(f"tet {bad[0]} has nonpositive volume {self.volumes[bad[0]]:g} "
                                     f"({bad.size} offending tets in total)")
        for a in (omega, self.volumes, self.diameters):
            a.flags.writeable = False
        self.omega = omega.T                               # read-only view


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
        self._lattice = None  # nodes per axis, set by build_box_mesh alone

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
        """Per-element volumes, diameters and edge weights."""
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


# Corner lattice offsets (6, 4, 3) of a cell's Kuhn tets: tet k walks from (0, 0, 0)
# to (1, 1, 1) one axis at a time, along the k-th permutation of the axes; odd
# permutations swap the two middle corners to keep the orientation positive.
_KUHN_CORNERS = np.array([
    path if np.linalg.det(steps) > 0 else path[[0, 2, 1, 3]]
    for steps in (np.eye(3, dtype=np.int64)[list(p)] for p in itertools.permutations(range(3)))
    for path in [np.vstack(([0, 0, 0], np.cumsum(steps, axis=0)))]
])


def build_box_mesh(n: int, lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)) -> BoxMesh:
    """Mesh the box [lo, hi] with n subdivisions per axis, 6 tets per cell.

    Nodes are numbered lexicographically in (x, y, z); each cell contributes
    its six Kuhn tetrahedra in a fixed permutation order, so repeated calls
    produce identical meshes.  The mesh records m = n + 1 as ``_lattice``.
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

    # node ids: each cell's origin id plus the (6, 4) id offsets of its Kuhn corners
    origin = (np.arange(n)[:, None, None] * m + np.arange(n)[:, None]) * m + np.arange(n)
    ids = np.add(origin.reshape(-1, 1, 1), _KUHN_CORNERS @ [m * m, m, 1],
                 out=_mapped_zeros((n**3, 6, 4), np.int64))
    tets = ids.reshape(-1, 4)

    mesh = BoxMesh(nodes, tets, boundary)
    mesh._lattice = m
    return mesh


@dataclass
class MeshQualityReport:
    """Sign pattern of the edge weights omega over all elements.

    ``all_strictly_positive`` is the strong mesh condition (every weight
    positive).  The weaker condition actually needed for a monotone
    exponential-fitting operator is ``nonnegative`` together with
    ``tet_has_positive_edge``.
    """

    zero_tol: float
    positive_fraction: float
    all_strictly_positive: bool
    nonnegative: bool
    tet_has_positive_edge: bool
    per_tet_positive: np.ndarray
    violations: np.ndarray  # (k, 3) float rows (tet, edge, weight)

    @property
    def weak_condition(self) -> bool:
        """No negative weight and at least one positive weight per element."""
        return self.nonnegative and self.tet_has_positive_edge


def mesh_quality_report(mesh: BoxMesh, zero_tol: float | None = None) -> MeshQualityReport:
    """Classify every (tet, edge) weight as positive, zero or negative.

    ``violations`` holds one row (tet, edge, weight) per pair that breaks
    the strict positivity condition, i.e. weight <= zero_tol.  Raises
    ``DegenerateTetError`` for inverted elements.
    """
    omega = mesh.geometry.omega
    if zero_tol is None:
        scale = float(np.abs(omega).max()) if omega.size else 1.0
        zero_tol = 1e-14 * max(scale, 1e-300)
    positive = omega > zero_tol
    negative = omega < -zero_tol
    per_tet_positive = positive.sum(axis=1)

    tet_idx, edge_idx = np.nonzero(~positive)
    violations = np.column_stack((tet_idx, edge_idx, omega[tet_idx, edge_idx]))
    return MeshQualityReport(
        zero_tol=zero_tol,
        positive_fraction=float(positive.mean()) if omega.size else 1.0,
        all_strictly_positive=bool(positive.all()),
        nonnegative=not bool(negative.any()),
        tet_has_positive_edge=bool((per_tet_positive > 0).all()),
        per_tet_positive=per_tet_positive,
        violations=violations,
    )


def dump_mesh(mesh: BoxMesh, path) -> None:
    """Write the mesh in plain text: header, one node and one tet per line."""
    with open(path, "w") as fh:
        fh.write(f"nodes {mesh.n_nodes} tets {mesh.n_tets}\n")
        for x, y, z in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")
        for a, b, c, d in mesh.tets:
            fh.write(f"{a} {b} {c} {d}\n")
