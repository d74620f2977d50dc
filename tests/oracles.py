"""Brute-force dense reference assemblies used to cross-check production code.

Everything here deliberately avoids the package's assembly paths: volume
quadrature is tensor Gauss-Legendre collapsed onto each tetrahedron (Duffy
transform, default 6^3 points, exact far beyond degree 8 for polynomials),
barycentric coordinates come from solving the 4x4 vertex system per element,
and edge averages of exponentials come from 64-point Gauss on the edge; each
Gauss-Legendre rule is computed once per size.
Dense matrices, Python loops over elements; meant for meshes with at most a
few hundred nodes.  ``from_coo`` and ``csr_from_dense`` are the bridges into
the package's CSR type, for tests that hand-build small sparse matrices and
for the reference build of ``interior_submatrix``, ``to_dense`` the bridge
out of it, and
``eafe_per_tet`` keeps the package's former per-tet eafe kernel (it uses the
package's ``bernoulli``) as a reference for the per-edge assembly.
``element_major_geometry``, ``slot_table_workspace`` and
``transpose_edge_table`` keep the package's former per-mesh set-up (einsum
and cross-product geometry, a pattern from 16 keys per element with the
stiffness scattered from (M, 4, 4) element matrices, and eafe's pruning by a
transpose map) as references for the set-up built from mesh edges, and
``slot_sum_transport`` eafe's former transport, one bincount over 4E slots, as the
reference for the values written straight into their slots.
``dirichlet_rows`` is the reference for the identity boundary rows of every
operator, and ``unconstrained`` the mesh whose operators have none.
``jittered_box`` builds the unstructured mesh that structure-exploiting
code paths must decline, and ``five_tet_cube`` a hand-built ``from_cells``
mesh.  ``oracle_sources`` keeps the manufactured sources as the package
formerly evaluated them, one named physical term per full-length array, and
``einsum_quadrature_points`` the former einsum form of the quadrature points;
``sampled_sources`` samples a time-separable ``sources`` pair at points, the
values the package formerly bound per run and assembled per level.
``masked_bernoulli`` keeps the former ``bernoulli``, which evaluated each
branch on its own entries only.
``kuhn_box_tets`` keeps the former corner ids of ``build_box_mesh``, from
(n^3, 6, 4, 3) corner lattice coordinates, as the reference for the ids
built from cell origins and id offsets.
``gradient_form_np`` keeps the former fem/supg element pass, from grad(phi_h)
over the (4, 3, M) gradients, as the reference for the edge-weight form, and
``stored_gradient_error_norms`` the former ``error_norms``, which read the
gradients of the whole mesh, as the reference for the per-block gradients.
"""

from functools import lru_cache

import numpy as np

from pnpfem import assembly
from pnpfem.assembly import AssembledNP, bernoulli
from pnpfem.linalg import SparseMatrix
from pnpfem.manufactured import C_DRIFT, exact_eval
from pnpfem.mesh import _BLOCK, _KUHN_CORNERS, BoxMesh, build_box_mesh
from pnpfem.quadrature import rule_for_order

LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@lru_cache(maxsize=None)
def gauss_legendre_unit(q: int):
    """q-point Gauss-Legendre nodes and weights on [0, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(q)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


def duffy_rule(q: int = 6):
    """Points/weights integrating over the reference tet {x,y,z>=0, sum<=1}."""
    x, w = gauss_legendre_unit(q)
    u, v, s = (a.ravel() for a in np.meshgrid(x, x, x, indexing="ij"))
    wu, wv, ws = (a.ravel() for a in np.meshgrid(w, w, w, indexing="ij"))
    xi = u
    eta = v * (1.0 - u)
    zeta = s * (1.0 - u) * (1.0 - v)
    jac = (1.0 - u) ** 2 * (1.0 - v)
    return np.stack([xi, eta, zeta], axis=1), wu * wv * ws * jac


def tet_frame(verts):
    """(volume, grad_lambda (4,3), vertex_system_inverse) for one tet."""
    m = np.ones((4, 4))
    m[1:, :] = verts.T
    minv = np.linalg.inv(m)
    volume = abs(np.linalg.det(m)) / 6.0
    grads = minv[:, 1:]
    return volume, grads, minv


def barycentric(minv, pts):
    """Barycentric coordinates of physical points, shape (Q, 4)."""
    rhs = np.column_stack([np.ones(len(pts)), pts])
    return rhs @ minv.T


def _tet_quad_points(verts, ref_pts):
    b = (verts[1:] - verts[0]).T                     # columns p1-p0, p2-p0, p3-p0
    det = np.linalg.det(b)
    return verts[0] + ref_pts @ b.T, abs(det)


def oracle_stiffness(mesh, q: int = 6):
    ref_pts, ref_w = duffy_rule(q)
    n = mesh.n_nodes
    a = np.zeros((n, n))
    for tet in mesh.tets:
        verts = mesh.nodes[tet]
        _, grads, _ = tet_frame(verts)
        _, det = _tet_quad_points(verts, ref_pts)
        cell = (grads @ grads.T) * (ref_w.sum() * det)
        a[np.ix_(tet, tet)] += cell
    return a


def oracle_support_volumes(mesh, q: int = 6):
    ref_pts, ref_w = duffy_rule(q)
    out = np.zeros(mesh.n_nodes)
    for tet in mesh.tets:
        _, det = _tet_quad_points(mesh.nodes[tet], ref_pts)
        out[tet] += ref_w.sum() * det
    return out


def oracle_lumped_mass(mesh, q: int = 6):
    return oracle_support_volumes(mesh, q) / 4.0


def oracle_convection(mesh, phi, q: int = 6):
    ref_pts, ref_w = duffy_rule(q)
    n = mesh.n_nodes
    a = np.zeros((n, n))
    for tet in mesh.tets:
        verts = mesh.nodes[tet]
        _, grads, minv = tet_frame(verts)
        pts, det = _tet_quad_points(verts, ref_pts)
        lam = barycentric(minv, pts)                 # (Q, 4)
        gphi = phi[tet] @ grads                      # constant gradient
        for i in range(4):
            gi = float(gphi @ grads[i])
            for j in range(4):
                a[tet[i], tet[j]] += det * float(ref_w @ lam[:, j]) * gi
    return a


def oracle_load(mesh, g, t, q: int = 6):
    ref_pts, ref_w = duffy_rule(q)
    out = np.zeros(mesh.n_nodes)
    for tet in mesh.tets:
        verts = mesh.nodes[tet]
        _, _, minv = tet_frame(verts)
        pts, det = _tet_quad_points(verts, ref_pts)
        lam = barycentric(minv, pts)
        vals = np.asarray(g(pts, t), dtype=float)
        for i in range(4):
            out[tet[i]] += det * float(ref_w @ (vals * lam[:, i]))
    return out


def oracle_harmonic_average(a, b, q: int = 64):
    """[(1/|E|) integral_E exp(linear with endpoint values a, b) ds]^{-1}."""
    s, w = gauss_legendre_unit(q)
    return 1.0 / float(w @ np.exp((1.0 - s) * a + s * b))


def oracle_eafe_transport(mesh, phi, c, q_edge: int = 64):
    """Exponentially fitted transport operator, zero column sums built in."""
    n = mesh.n_nodes
    a = np.zeros((n, n))
    for tet in mesh.tets:
        verts = mesh.nodes[tet]
        vol, grads, _ = tet_frame(verts)
        for nu, mu in LOCAL_EDGES:
            omega = -vol * float(grads[mu] @ grads[nu])
            ea = c * phi[tet[nu]]
            eb = c * phi[tet[mu]]
            alpha = oracle_harmonic_average(ea, eb, q_edge)
            a[tet[nu], tet[mu]] -= omega * alpha * np.exp(eb)
            a[tet[mu], tet[nu]] -= omega * alpha * np.exp(ea)
            a[tet[nu], tet[nu]] += omega * alpha * np.exp(ea)
            a[tet[mu], tet[mu]] += omega * alpha * np.exp(eb)
    return a


def eafe_per_tet(mesh, phi, c):
    """Edge-averaged transport assembled tet by tet, as a dense matrix.

    The element-matrix kernel that the per-edge assembly replaced, kept as a
    near-bitwise reference: B is evaluated twice for each of the six local
    edges of every tet and the element matrices are summed in tet order.
    """
    omega = mesh.geometry.omega
    phi_loc = phi[mesh.tets]
    vals = np.zeros((mesh.n_tets, 4, 4))
    for e, (nu, mu) in enumerate(LOCAL_EDGES):
        t_e = c * (phi_loc[:, nu] - phi_loc[:, mu])
        w = omega[:, e]
        b_fwd = w * bernoulli(t_e)
        b_bwd = w * bernoulli(-t_e)
        vals[:, nu, mu] -= b_fwd
        vals[:, mu, nu] -= b_bwd
        vals[:, nu, nu] += b_bwd
        vals[:, mu, mu] += b_fwd
    a = np.zeros((mesh.n_nodes, mesh.n_nodes))
    np.add.at(a, (mesh.tets[:, :, None], mesh.tets[:, None, :]), vals)
    return a


def oracle_supg_parts(mesh, phi, c, tau_tilde, q: int = 6):
    """Streamline stabilization blocks: (A_stream, S_time, node_weights)."""
    ref_pts, ref_w = duffy_rule(q)
    n = mesh.n_nodes
    a_stream = np.zeros((n, n))
    s_time = np.zeros((n, n))
    node_w = np.zeros((mesh.n_tets, 4))
    for k, tet in enumerate(mesh.tets):
        verts = mesh.nodes[tet]
        _, grads, minv = tet_frame(verts)
        pts, det = _tet_quad_points(verts, ref_pts)
        lam = barycentric(minv, pts)
        gphi = phi[tet] @ grads
        speed = abs(c) * float(np.linalg.norm(gphi))
        h_k = max(
            float(np.linalg.norm(verts[m] - verts[l])) for l, m in LOCAL_EDGES
        )
        peclet = 0.5 * h_k * speed
        if peclet >= 1.0:
            c_k = tau_tilde * h_k / (2.0 * speed)
        else:
            c_k = tau_tilde * h_k * h_k / 4.0
        w_vec = -c * c_k * gphi
        for i in range(4):
            wi = float(w_vec @ grads[i])
            node_w[k, i] = wi
            for j in range(4):
                a_stream[tet[i], tet[j]] += (
                    det * ref_w.sum() * (-c * float(gphi @ grads[j])) * wi
                )
                s_time[tet[i], tet[j]] += det * float(ref_w @ lam[:, j]) * wi
    return a_stream, s_time, node_w


def element_major_geometry(mesh):
    """(volumes, grad_lambda (M, 4, 3), omega, diameters) from np.cross and einsum."""
    corners = mesh.nodes[mesh.tets]
    u, v, w = (corners[:, k] - corners[:, 0] for k in (1, 2, 3))
    det6 = np.einsum("md,md->m", u, np.cross(v, w))
    if (det6 <= 0.0).any():
        raise ValueError("mesh has a tet of nonpositive volume")
    grad = np.empty((mesh.n_tets, 4, 3))
    grad[:, 1] = np.cross(v, w) / det6[:, None]
    grad[:, 2] = np.cross(w, u) / det6[:, None]
    grad[:, 3] = np.cross(u, v) / det6[:, None]
    grad[:, 0] = -(grad[:, 1] + grad[:, 2] + grad[:, 3])
    volumes = det6 / 6.0
    omega = np.stack([-volumes * np.einsum("md,md->m", grad[:, mu], grad[:, nu])
                      for nu, mu in LOCAL_EDGES], axis=1)
    diam = np.zeros(mesh.n_tets)
    for nu, mu in LOCAL_EDGES:
        np.maximum(diam, np.linalg.norm(corners[:, mu] - corners[:, nu], axis=1), out=diam)
    return volumes, grad, omega, diam


def slot_table_workspace(mesh):
    """(pattern, diag_slots, edge_slots (2, 6, M), stiffness data) from 16 keys per tet.

    Every (row, column) pair of every tet is one key; the stiffness is the
    element matrices vol * grad_lambda_i . grad_lambda_j summed through the
    (M, 16) slot table, and ``edge_slots`` is gathered from that table.
    """
    tets, n = mesh.tets, mesh.n_nodes
    keys = (tets[:, :, None] * n + tets[:, None, :]).ravel()
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(unique_keys // n, minlength=n), out=indptr[1:])
    pattern = SparseMatrix(n, indptr, unique_keys % n, np.zeros(unique_keys.size))
    diag_slots = np.flatnonzero(unique_keys // n == unique_keys % n)
    if diag_slots.size != n:
        raise AssertionError("mesh has nodes that belong to no element")
    volumes, grad, _, _ = element_major_geometry(mesh)
    local = volumes[:, None, None] * np.einsum("mid,mjd->mij", grad, grad)
    table = inverse.reshape(mesh.n_tets, 16)
    ends = np.array(LOCAL_EDGES + tuple(e[::-1] for e in LOCAL_EDGES)).T
    edge_slots = table.T[ends[0] * 4 + ends[1]].reshape(2, 6, -1)
    return pattern, diag_slots, edge_slots, np.bincount(inverse, weights=local.ravel())


def transpose_edge_table(pattern, diag_slots, edge_slots, stiffness_data):
    """eafe's (pruned pattern, a, b, weight, upper, lower, diag_slots), edges from the stiffness.

    Edges are the upper entries of nonzero stiffness, weight minus that entry;
    the lower slots come from a transpose map of the full pattern.
    """
    rows = pattern.rows()
    s_ij, s_ji = edge_slots.reshape(2, -1)
    transpose = np.empty(pattern.nnz, dtype=np.int64)
    transpose[np.minimum(s_ij, s_ji)] = np.maximum(s_ij, s_ji)
    upper = np.flatnonzero((rows < pattern.indices) & (stiffness_data != 0.0))
    keep = np.zeros(pattern.nnz, dtype=bool)
    keep[np.concatenate((diag_slots, upper, transpose[upper]))] = True
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    pruned = SparseMatrix(pattern.n, kept_before[pattern.indptr], pattern.indices[keep],
                          np.zeros(kept_before[-1]))
    a, b = rows[upper], pattern.indices[upper]
    return (pruned, a, b, -stiffness_data[upper], kept_before[upper],
            kept_before[transpose[upper]], kept_before[diag_slots])


def slot_sum_transport(edges, phi, drift):
    """eafe's transport data per c in ``drift`` from one bincount over 4E slots, the upper,
    lower and the two diagonal slots of each ``_EdgeTable`` edge, as the package formerly
    summed it (with its Bernoulli values, B(-|t|) = B(|t|) + |t|)."""
    slots = np.concatenate((edges.upper, edges.lower,
                            edges.diag_slots[edges.a], edges.diag_slots[edges.b]))
    dphi, out = phi[edges.a] - phi[edges.b], []
    for c in drift:
        t = abs(c) * np.abs(dphi)
        b_pos, ahead = bernoulli(t), c * dphi >= 0.0
        b_neg = b_pos + t
        w_fwd = edges.weight * np.where(ahead, b_pos, b_neg)
        w_bwd = edges.weight * np.where(ahead, b_neg, b_pos)
        vals = np.concatenate((-w_fwd, -w_bwd, w_bwd, w_fwd))
        out.append(np.bincount(slots, weights=vals, minlength=edges.pattern.nnz))
    return out


def gradient_form_np(mesh, phi, cfg, tau):
    """fem or supg systems of both species, as ``assemble_np`` formerly built them.

    grad(phi_h) and d_i = grad(phi_h).grad(psi_i) come from the (4, 3, M)
    view of ``element_major_geometry``'s gradients; the transport is summed
    over element edges by ``from_edges``, entry (nu, mu) c r_nu with
    r = (tau - c_K) vol_K d / 4, plus supg's streamline term
    tau c^2 c_K vol_K d_nu d_mu and weights -c c_K d_i.
    """
    ws, geo = assembly._workspace(mesh), mesh.geometry
    g = element_major_geometry(mesh)[1].transpose(1, 2, 0)          # (4, 3, M)
    ends = np.array(LOCAL_EDGES + tuple(e[::-1] for e in LOCAL_EDGES)).T
    p = phi[mesh.tets.T]
    gphi = p[0] * g[0] + p[1] * g[1] + p[2] * g[2] + p[3] * g[3]    # (3, M)
    d = gphi[0] * g[:, 0] + gphi[1] * g[:, 1] + gphi[2] * g[:, 2]   # (4, M)
    d_row, quarter_vol = d[ends[0]], 0.25 * geo.volumes
    base, datas, stab_w = tau * ws.pattern.data, [], [None, None]
    if cfg.scheme == "fem":
        conv = ws.from_edges(tau * quarter_vol * d_row)
        datas = [base + c * conv for c in cfg.drift]
    else:
        speed, h_k = np.linalg.norm(gphi, axis=0), geo.diameters
        for i, c in enumerate(cfg.drift):
            cs = abs(c) * speed
            c_k = np.where(0.5 * h_k * cs >= 1.0,
                           cfg.supg_scale * h_k / (2.0 * np.where(cs > 0.0, cs, 1.0)),
                           cfg.supg_scale * h_k * h_k / 4.0)
            stream = (tau * c * c) * c_k * geo.volumes * d_row[:6] * d_row[6:]
            rows = ws.from_edges((tau - c_k) * quarter_vol * d_row)
            stab_w[i] = (-c * c_k * d).T
            datas.append(base + c * rows + ws.from_edges(stream))
    for data in datas:
        data[ws.diag_slots] += ws.lumped / 4.0
    assembly._identity_rows(ws, mesh.boundary, datas)
    return [AssembledNP(ws.pattern.with_data(data), w) for data, w in zip(datas, stab_w)]


def stored_gradient_error_norms(mesh, dofs, field, t, order=5):
    """(L2, H1-seminorm) errors as ``error_norms`` formerly summed them, in blocks of
    ``_BLOCK`` elements, reading each block's rows of the (M, 4, 3) mesh gradients."""
    pts, wts = rule_for_order(order)
    volumes, grad, _, _ = element_major_geometry(mesh)
    l2sq = h1sq = 0.0
    for lo in range(0, mesh.n_tets, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        tets, vol = mesh.tets[blk], volumes[blk]
        xq = np.einsum("qk,mkd->mqd", pts, mesh.nodes[tets])
        exact_val, exact_grad, _ = exact_eval(field, xq.reshape(-1, 3), t)
        local = dofs[tets]
        dv = local @ pts.T - exact_val.reshape(xq.shape[:2])
        guh = np.einsum("mk,mkd->md", local, grad[blk])
        dg = guh[:, None, :] - exact_grad.reshape(xq.shape)
        l2sq += float(np.einsum("m,mq,q->", vol, dv * dv, wts))
        h1sq += float(np.einsum("m,mq,q->", vol, np.einsum("mqd,mqd->mq", dg, dg), wts))
    return np.sqrt(max(l2sq, 0.0)), np.sqrt(max(h1sq, 0.0))


def from_coo(n, rows, cols, vals):
    """CSR matrix from coordinate triplets; duplicate entries are summed."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=float)
    if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
        raise ValueError("coordinate out of range")
    keys = rows * n + cols
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    data = np.bincount(inverse, weights=vals, minlength=unique_keys.size)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(unique_keys // n, minlength=n), out=indptr[1:])
    return SparseMatrix(n, indptr, unique_keys % n, data)


def interior_submatrix_coo(a, keep):
    """Principal submatrix on ``keep``, rebuilt from its triplets by ``from_coo``."""
    new_index = np.cumsum(keep) - 1
    rows = a.rows()
    sel = keep[rows] & keep[a.indices]
    return from_coo(int(keep.sum()), new_index[rows[sel]], new_index[a.indices[sel]], a.data[sel])


def to_dense(a):
    """Dense array of a CSR matrix."""
    out = np.zeros((a.n, a.n))
    out[a.rows(), a.indices] = a.data
    return out


def csr_from_dense(a):
    """CSR matrix holding the nonzero entries of a square dense array."""
    a = np.asarray(a, dtype=float)
    rows, cols = np.nonzero(a)
    return from_coo(a.shape[0], rows, cols, a[rows, cols])


def dirichlet_rows(a, mask):
    """Dense ``a`` with the rows flagged in ``mask`` replaced by identity rows."""
    out = a.copy()
    out[mask, :] = 0.0
    out[mask, mask] = 1.0
    return out


def oracle_np_matrix(mesh, phi, c, tau, scheme, tau_tilde=1.0, q=6):
    """Dense mass + tau * transport for one species, any of the three schemes,
    with identity rows on ``mesh.boundary``."""
    mass = np.diag(oracle_lumped_mass(mesh, q))
    if scheme == "eafe":
        transport = oracle_eafe_transport(mesh, phi, c)
        a = mass + tau * transport
    else:
        transport = oracle_stiffness(mesh, q) + c * oracle_convection(mesh, phi, q)
        a = mass + tau * transport
        if scheme == "supg":
            a_stream, s_time, _ = oracle_supg_parts(mesh, phi, c, tau_tilde, q)
            a = a + tau * a_stream + s_time
    return dirichlet_rows(a, mesh.boundary)


def unconstrained(mesh):
    """The same nodes and tets with no Dirichlet node: operators without identity rows."""
    return BoxMesh.from_cells(mesh.nodes, mesh.tets, np.zeros(mesh.n_nodes, dtype=bool))


def jittered_box(n=3, seed=0, amplitude=0.2):
    """Box mesh whose interior nodes are moved by up to amplitude * h per axis."""
    base = build_box_mesh(n)
    nodes = base.nodes.copy()
    inner = ~base.boundary
    rng = np.random.default_rng(seed)
    nodes[inner] += rng.uniform(-amplitude, amplitude, (inner.sum(), 3)) / n
    return BoxMesh.from_cells(nodes, base.tets, base.boundary)


def kuhn_box_tets(n):
    """(6 n^3, 4) corner ids of the Kuhn box, from every corner's lattice coordinates."""
    m = n + 1
    cells = np.stack(np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij"),
                     axis=-1).reshape(-1, 3)
    corner_ijk = cells[:, None, None, :] + _KUHN_CORNERS[None, :, :, :]    # (n^3, 6, 4, 3)
    return ((corner_ijk[..., 0] * m + corner_ijk[..., 1]) * m + corner_ijk[..., 2]).reshape(-1, 4)


def five_tet_cube():
    """The unit cube cut into five tets: the corner tets of nodes 1, 2, 4, 7 and
    the central tet of 0, 3, 5, 6 (node i at the bits of i as (x, y, z))."""
    nodes = np.array([[(i >> 2) & 1, (i >> 1) & 1, i & 1] for i in range(8)], dtype=float)
    tets = np.array([[0, 3, 5, 6], [1, 0, 3, 5], [2, 0, 3, 6], [4, 0, 5, 6], [7, 3, 5, 6]])
    u, v, w = (nodes[tets[:, k]] - nodes[tets[:, 0]] for k in (1, 2, 3))
    flip = np.einsum("md,md->m", u, np.cross(v, w)) < 0.0
    tets[flip, 1], tets[flip, 2] = tets[flip, 2], tets[flip, 1]
    return BoxMesh.from_cells(nodes, tets)


def oracle_sources(pts, t):
    """(F1, F2, F3) at (Q, 3) points, term by term from c = cos cos cos and |grad c|^2."""
    three_pi2 = 3.0 * np.pi**2
    amp = 1.0 - np.exp(-t)
    st, s2t = np.sin(t), np.sin(2.0 * t)
    ct, c2t = np.cos(t), np.cos(2.0 * t)
    (cx, cy, cz), (sx, sy, sz) = np.cos(np.pi * pts.T), np.sin(np.pi * pts.T)
    c = cx * cy * cz
    gc = -np.pi * np.stack((sx * cy * cz, cx * sy * cz, cx * cy * sz), axis=1)
    gc2 = np.einsum("qd,qd->q", gc, gc)

    p_val = three_pi2 * st * (1.0 + 0.5 * c)
    n_val = three_pi2 * s2t * (1.0 - 0.5 * c)

    # -Lap(u) = 3 pi^2 amp * c
    f1 = three_pi2 * amp * c - (p_val - n_val)

    # F2 = dp/dt - Lap(p) - c_drift * (grad p . grad u + p Lap u)
    lap_p = -0.5 * three_pi2 * st * three_pi2 * c
    gradp_gradu = 0.5 * three_pi2 * st * amp * gc2
    p_lap_u = p_val * (-three_pi2 * amp * c)
    f2 = three_pi2 * ct * (1.0 + 0.5 * c) - lap_p - C_DRIFT * (gradp_gradu + p_lap_u)

    # F3 = dn/dt - Lap(n) + c_drift * (grad n . grad u + n Lap u)
    lap_n = 0.5 * three_pi2 * s2t * three_pi2 * c
    gradn_gradu = -0.5 * three_pi2 * s2t * amp * gc2
    n_lap_u = n_val * (-three_pi2 * amp * c)
    f3 = 2.0 * three_pi2 * c2t * (1.0 - 0.5 * c) - lap_n + C_DRIFT * (gradn_gradu + n_lap_u)
    return np.stack((f1, f2, f3))


def einsum_quadrature_points(mesh, order=2):
    """Points of the degree-``order`` rule, (M*Q, 3), element by element."""
    pts, _ = rule_for_order(order)
    return np.einsum("qk,mkd->mqd", pts, mesh.nodes[mesh.tets]).reshape(-1, 3)


def sampled_sources(sources, pts, t):
    """(3, Q) right-hand sides of a (coefficients, fields) ``sources`` pair at (Q, 3) points."""
    coefficients, fields = sources
    return np.asarray(coefficients(t), dtype=float) @ np.asarray(fields(pts), dtype=float)


def masked_bernoulli(t):
    """B(t) = t / (exp(t) - 1) with each branch evaluated on its entries only."""
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
