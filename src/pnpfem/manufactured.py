"""Closed-form benchmark solution on the unit cube centred at the origin.

The benchmark couples a potential u with two carrier densities p and n
through

    -Lap(u) - (p - n)                          = F1
    dp/dt - div(grad(p) + c * p * grad(u))     = F2
    dn/dt - div(grad(n) - c * n * grad(u))     = F3

on Omega = [-1/2, 1/2]^3 with c = 0.179, Dirichlet data and sources taken
from the exact fields

    u = (1 - exp(-t)) * cos(pi x) cos(pi y) cos(pi z)
    p = 3 pi^2 sin(t)  * (1 + cos(pi x) cos(pi y) cos(pi z) / 2)
    n = 3 pi^2 sin(2t) * (1 - cos(pi x) cos(pi y) cos(pi z) / 2)

and p = n = 0 at t = 0.  The sources are hand-derived (3, 4) time factors on
1, C, C^2 and |grad C|^2 for C = cos(pi x) cos(pi y) cos(pi z); a finite-difference
residual test guards the derivation.  Note the asymmetry of the model: the
potential equation couples with unit charges while the fluxes drift with +-c.
"""

from __future__ import annotations

import numpy as np

from .assembly import SchemeConfig
from .mesh import _BLOCK, _gradients
from .quadrature import rule_for_order

__all__ = [
    "C_DRIFT",
    "exact_eval",
    "source_terms",
    "error_norms",
    "scheme_config",
    "transient_problem",
]

C_DRIFT = 0.179
_3PI2 = 3.0 * np.pi**2

FIELDS = ("u", "p", "n")


def _as_points(x):
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != 3:
        raise ValueError("points must have three coordinates")
    return pts, single


def _cosprod(pts):
    return np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1]) * np.cos(np.pi * pts[:, 2])


def _grad_cosprod(pts):
    cx, cy, cz = (np.cos(np.pi * pts[:, d]) for d in range(3))
    sx, sy, sz = (np.sin(np.pi * pts[:, d]) for d in range(3))
    return -np.pi * np.stack((sx * cy * cz, cx * sy * cz, cx * cy * sz), axis=1)


def exact_eval(field: str, x, t: float):
    """Value, gradient and time derivative of one exact field.

    Accepts a single point (3,) or a batch (Q, 3); returns arrays of
    matching leading shape.
    """
    if field not in FIELDS:
        raise ValueError(f"unknown field {field!r}, expected one of {FIELDS}")
    pts, single = _as_points(x)
    c = _cosprod(pts)
    gc = _grad_cosprod(pts)
    val = _value_at(field, c, t)
    if field == "u":
        grad = (1.0 - np.exp(-t)) * gc
        dt = np.exp(-t) * c
    elif field == "p":
        grad = 0.5 * _3PI2 * np.sin(t) * gc
        dt = _3PI2 * np.cos(t) * (1.0 + 0.5 * c)
    else:
        grad = -0.5 * _3PI2 * np.sin(2.0 * t) * gc
        dt = 2.0 * _3PI2 * np.cos(2.0 * t) * (1.0 - 0.5 * c)
    if single:
        return float(val[0]), grad[0], float(dt[0])
    return val, grad, dt


def _value_at(field: str, c, t: float):
    """Value of one exact field from the cosine product c."""
    if field == "u":
        return (1.0 - np.exp(-t)) * c
    if field == "p":
        return _3PI2 * np.sin(t) * (1.0 + 0.5 * c)
    return _3PI2 * np.sin(2.0 * t) * (1.0 - 0.5 * c)


def _bind_boundary(pts):
    """(u, p, n) at (Q, 3) points as a function of t; c is computed once."""
    c = _cosprod(pts)
    return lambda t: tuple(_value_at(name, c, t) for name in FIELDS)


def source_terms(x, t: float):
    """Right-hand sides (F1, F2, F3) evaluated pointwise: (3, Q) for points (Q, 3).

    Uses Lap(cos cos cos) = -3 pi^2 cos cos cos and the product rule
    div(v grad u) = grad v . grad u + v Lap u on the closed forms above.
    Built, like the sources of ``transient_problem``, as ``_coefficients(t) @ _fields(pts)``.
    """
    pts, single = _as_points(x)
    values = _coefficients(t) @ _fields(pts)
    return tuple(float(v[0]) for v in values) if single else values


def _fields(pts):
    """The fields 1, c, c^2, |grad c|^2 at (Q, 3) points, one (4, Q) array.

    From c_d = cos(pi x_d): |grad c|^2 = pi^2 (c_y^2 c_z^2 + c_x^2 c_z^2 + c_x^2 c_y^2 - 3 c^2).
    """
    cos = np.cos(np.pi * pts.T)
    c = cos.prod(axis=0)
    x, y, z = np.square(cos, out=cos)
    return np.stack((np.ones_like(c), c, c * c, np.pi**2 * (y * z + x * z + x * y - 3 * c * c)))


def _coefficients(t: float):
    """(3, 4) time factors of (F1, F2, F3) on (1, c, c^2, |grad c|^2), term by term."""
    one, c, grad_c2 = np.eye(4)[[0, 1, 3]]  # each term is a 4-vector on those fields
    amp, st, s2t, ct, c2t = 1.0 - np.exp(-t), np.sin(t), np.sin(2 * t), np.cos(t), np.cos(2 * t)
    p, n = _3PI2 * st * (one + 0.5 * c), _3PI2 * s2t * (one - 0.5 * c)
    lap_u = -_3PI2 * amp * c
    f1 = -lap_u - (p - n)

    # F2 = dp/dt - Lap(p) - c_drift * (grad p . grad u + p Lap u)
    lap_p = -0.5 * _3PI2 * st * _3PI2 * c
    gradp_gradu = 0.5 * _3PI2 * st * amp * grad_c2
    p_lap_u = np.roll(p, 1) * lap_u[1]  # Lap(u) is lap_u[1] * c; c * p is p one slot up
    f2 = _3PI2 * ct * (one + 0.5 * c) - lap_p - C_DRIFT * (gradp_gradu + p_lap_u)

    # F3 = dn/dt - Lap(n) + c_drift * (grad n . grad u + n Lap u)
    lap_n = 0.5 * _3PI2 * s2t * _3PI2 * c
    gradn_gradu = -0.5 * _3PI2 * s2t * amp * grad_c2
    n_lap_u = np.roll(n, 1) * lap_u[1]
    f3 = 2.0 * _3PI2 * c2t * (one - 0.5 * c) - lap_n + C_DRIFT * (gradn_gradu + n_lap_u)
    return np.stack((f1, f2, f3))


def error_norms(mesh, dofs, field: str, t: float, order: int = 5):
    """L2 and H1-seminorm errors of a nodal vector against an exact field.

    Per-element quadrature of the stated order (default degree 5, enough for the
    degree-4 products that arise from P1 differences), summed over blocks of
    ``_BLOCK`` elements, each computing its own barycentric gradients.
    """
    dofs = np.asarray(dofs, dtype=float)
    if dofs.shape != (mesh.n_nodes,):
        raise ValueError("dof vector does not match the mesh")
    pts, wts = rule_for_order(order)
    volumes = mesh.geometry.volumes                   # raises DegenerateTetError for inverted tets
    l2sq = h1sq = 0.0
    for lo in range(0, mesh.n_tets, _BLOCK):
        tets, vol = mesh.tets[lo:lo + _BLOCK], volumes[lo:lo + _BLOCK]
        grad = _gradients(mesh.nodes.T[:, tets.T])[0]                 # (4, 3, B)
        xq = np.einsum("qk,mkd->mqd", pts, mesh.nodes[tets])         # (B, Q, 3)
        exact_val, exact_grad, _ = exact_eval(field, xq.reshape(-1, 3), t)
        local = dofs[tets]                                            # (B, 4)
        dv = local @ pts.T - exact_val.reshape(xq.shape[:2])          # (B, Q)
        guh = np.einsum("mk,kdm->md", local, grad)                    # (B, 3)
        dg = guh[:, None, :] - exact_grad.reshape(xq.shape)           # (B, Q, 3)
        l2sq += float(np.einsum("m,mq,q->", vol, dv * dv, wts))
        h1sq += float(np.einsum("m,mq,q->", vol, np.einsum("mqd,mqd->mq", dg, dg), wts))
    return np.sqrt(max(l2sq, 0.0)), np.sqrt(max(h1sq, 0.0))


def scheme_config(scheme: str = "fem", **overrides) -> SchemeConfig:
    """Scheme configuration for the benchmark: unit charges, +-c drift."""
    kwargs = dict(
        scheme=scheme,
        charges=(1.0, -1.0),
        drift=(C_DRIFT, -C_DRIFT),
    )
    kwargs.update(overrides)
    return SchemeConfig(**kwargs)


def transient_problem(T: float, tau: float, **overrides):
    """TransientConfig wired to the benchmark's data.

    Boundary data comes from the exact traces, sources from the derived
    right-hand sides and both carriers start at zero.  ``sources`` is the
    time-separable pair (``_coefficients``, ``_fields``): ``run_transient``
    integrates the four fields once per run, and each level costs only the
    (3, 4) time factors.  Binding ``boundary`` computes c once.
    """
    from .timestepper import TransientConfig

    kwargs = dict(
        T=T,
        tau=tau,
        initial=lambda pts: (np.zeros(len(pts)), np.zeros(len(pts))),
        boundary=lambda pts: _bind_boundary(_as_points(pts)[0]),
        sources=(_coefficients, lambda pts: _fields(_as_points(pts)[0])),
    )
    kwargs.update(overrides)
    return TransientConfig(**kwargs)
