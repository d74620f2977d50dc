"""Brute-force dense reference assemblies used to cross-check production code.

Everything here deliberately avoids the package's assembly paths: volume
quadrature is tensor Gauss-Legendre collapsed onto each tetrahedron (Duffy
transform, default 6^3 points, exact far beyond degree 8 for polynomials),
barycentric coordinates come from solving the 4x4 vertex system per element,
and edge averages of exponentials come from 64-point Gauss on the edge.
Dense matrices, Python loops over elements; meant for meshes with at most a
few hundred nodes.  ``csr_from_dense`` is the one bridge back into the
package's CSR type, for tests that hand-build small sparse matrices.
"""

import numpy as np

from pnpfem.linalg import SparseMatrix

LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def duffy_rule(q: int = 6):
    """Points/weights integrating over the reference tet {x,y,z>=0, sum<=1}."""
    x, w = np.polynomial.legendre.leggauss(q)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
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
    s, w = np.polynomial.legendre.leggauss(q)
    s = 0.5 * (s + 1.0)
    w = 0.5 * w
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


def csr_from_dense(a):
    """CSR matrix holding the nonzero entries of a square dense array."""
    a = np.asarray(a, dtype=float)
    rows, cols = np.nonzero(a)
    return SparseMatrix.from_coo(a.shape[0], rows, cols, a[rows, cols])


def dirichlet_rows(a, mask):
    out = a.copy()
    out[mask, :] = 0.0
    out[mask, mask] = 1.0
    return out


def oracle_np_matrix(mesh, phi, c, tau, scheme, tau_tilde=1.0, apply_bc=True, q=6):
    """Dense mass + tau * transport for one species, any of the three schemes."""
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
    if apply_bc:
        a = dirichlet_rows(a, mesh.boundary)
    return a
