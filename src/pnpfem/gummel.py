"""Decoupled fixed-point iteration for one implicit time step.

Each sweep first solves the potential equation with the concentrations of
the previous sweep frozen, then solves the two concentration systems with
the fresh potential frozen.  The iteration logic is scheme-agnostic: the
only scheme dependence sits behind ``assembly.assemble_np``, whose supg
systems carry the weights of their one extra load,
``assembly.stab_source_vector``.

Instrumentation: per-sweep increments are recorded in the Euclidean norm on
nodal vectors (used by the stopping test); the successive ratios of their
max norms measure the contraction factor of the fixed-point map.

Every linear solve takes its residual target ``linear_tol * ||b||`` on the
free rows: the Dirichlet identity rows, which the start already satisfies,
hold nearly all of ``||b||`` (2,200-3,500 times its free-row norm at h = 1/16,
tau = 4h^2, fem), and a target on all rows froze the late iterates, so the
measured contraction moved with ``linear_tol``.  The concentration solves use
``assembly.concentration_preconditioner`` where it applies, else Jacobi.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import assembly
from .assembly import SchemeConfig
from .linalg import NonConvergenceError, solve_general, solve_spd, spmv
from .mesh import BoxMesh

__all__ = [
    "State",
    "GummelReport",
    "StepProblem",
    "solve_potential",
    "gummel_step",
    "gummel_solve",
    "ContractionSummary",
    "contraction_stats",
]


@dataclass
class State:
    """Nodal unknowns at one time level: potential and both concentrations."""

    phi: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    t: float

    def __post_init__(self):
        n = self.phi.shape[0]
        if self.p1.shape != (n,) or self.p2.shape != (n,):
            raise ValueError("state vectors must share one length")

    def concentrations(self) -> np.ndarray:
        return np.stack((self.p1, self.p2))


@dataclass
class GummelReport:
    """Per-step iteration record.

    ``increments_l2`` holds one row per sweep with columns (dP1, dP2, dPhi).
    ``ratios`` are the successive max-norm ratios of the stacked
    concentration increments, defined from the second sweep on;
    ``alpha_bar`` is the mean of the nonzero ratios (NaN when none exists).
    An exactly zero ratio means both concentration solves of a sweep met their
    free-row target at the start (0 iterations), which carries no contraction
    information, so zeros are kept in the record but left out of the mean.
    """

    iterations: int
    converged: bool
    increments_l2: np.ndarray
    ratios: np.ndarray
    alpha_bar: float

    @property
    def final_increment(self) -> float:
        """Combined Euclidean increment of the last sweep."""
        if self.iterations == 0:
            return 0.0
        return float(self.increments_l2[-1].sum())


@dataclass
class StepProblem:
    """Frozen data of one implicit step: loads and boundary values.

    ``f_np`` already contains tau * load + mass * previous concentrations;
    the solver only adds the supg load (its weights depend on the iterate's
    potential) from ``p_tau_f_elem_int``, the per-element integrals
    int_K (p^n_h + tau F_i), and imposes boundary values.  The potential
    operator is the mesh's own, ``assembly.potential_system``.
    """

    mesh: BoxMesh
    cfg: SchemeConfig
    tau: float
    t_next: float
    g_phi: np.ndarray                     # potential load vector
    f_np: np.ndarray                      # (2, N) concentration right-hand sides
    bc: np.ndarray                        # (3, N) boundary values (u, p1, p2) at the new level
    p_tau_f_elem_int: np.ndarray | None = None  # (2, M) int_K (p^n + tau F), supg only
    buffers: dict | None = None           # assemble_np's arrays, kept by the run between sweeps


def _impose(values: np.ndarray, mask: np.ndarray, bc: np.ndarray) -> np.ndarray:
    out = values.copy()
    out[mask] = bc[mask]
    return out


@contextmanager
def _failure_context(where: str):
    """Re-raise a linear-solve failure with ``where`` in front of its message."""
    try:
        yield
    except NonConvergenceError as exc:
        raise NonConvergenceError(f"{where}: {exc}", exc.residual, exc.iterations) from exc


def solve_potential(
    mesh: BoxMesh, cfg: SchemeConfig, load: np.ndarray, bc: np.ndarray, p, guess: np.ndarray,
) -> np.ndarray:
    """Potential for the frozen concentration pair ``p``.

    Solves the mesh's ``assembly.potential_system`` matrix (stiffness on the
    weighted edges with identity boundary rows) against load + sum_i z_i * mass * p_i,
    mass the lumped volumes / 4, by CG, which verifies the residual, from ``bc`` on the
    boundary and inside from the exact DST solve of the interior block on a
    ``build_box_mesh`` box (0 CG iterations), else from ``guess``.  Every potential
    solve of a run, sweeps and refreshes alike, goes through here.
    """
    bmask = mesh.boundary
    matrix, grid = assembly.potential_system(mesh)
    mass = assembly.lumped_volumes(mesh) / 4.0
    rhs = load.copy()
    for z, p_i in zip(cfg.charges, p):
        rhs += z * (mass * p_i)
    rhs = _impose(rhs, bmask, bc)
    x0 = _impose(guess if grid is None else np.zeros(mesh.n_nodes), bmask, bc)
    if grid is not None:
        x0[grid.free] = grid.solve(rhs - spmv(matrix, x0))
    with _failure_context("potential solve"):
        return solve_spd(matrix, rhs, cfg.linear_tol, cfg.linear_maxit, x0=x0, free=~bmask).x


def gummel_step(problem: StepProblem, iterate: State) -> State:
    """One decoupling sweep.

    The potential solve sees the concentrations of the given iterate; the
    concentration solves see the potential just computed and start from the
    iterate with boundary rows corrected.  A failed solve is re-raised with
    its name: "potential solve", "species 1 solve" or "species 2 solve".
    """
    mesh = problem.mesh
    cfg = problem.cfg
    bmask = mesh.boundary

    prev_p = (iterate.p1, iterate.p2)
    phi_new = solve_potential(mesh, cfg, problem.g_phi, problem.bc[0], prev_p, iterate.phi)

    p_new = []
    precond = assembly.concentration_preconditioner(mesh, phi_new, cfg, problem.tau)
    systems = assembly.assemble_np(mesh, phi_new, cfg, problem.tau, problem.buffers)
    for i, system in enumerate(systems):
        rhs_i = problem.f_np[i]
        if system.stab_grad_weights is not None:
            rhs_i = rhs_i + assembly.stab_source_vector(mesh, system, problem.p_tau_f_elem_int[i])
        rhs_i = _impose(rhs_i, bmask, problem.bc[i + 1])
        guess = _impose(prev_p[i], bmask, problem.bc[i + 1])
        with _failure_context(f"species {i + 1} solve"):
            sol = solve_general(system.matrix, rhs_i, cfg.linear_tol, cfg.linear_maxit, x0=guess,
                                free=~bmask, precond=precond)
        p_new.append(sol.x)

    return State(phi_new, p_new[0], p_new[1], problem.t_next)


def gummel_solve(
    problem: StepProblem,
    prev: State,
    eps: float = 1e-6,
    maxit: int = 500,
) -> tuple[State, GummelReport]:
    """Iterate sweeps until the combined increment drops below eps.

    The stopping test sums the Euclidean norms of the three increments; the
    recorded contraction ratios use the max norm of the stacked
    concentration increment.  Running out of sweeps is reported, not raised;
    linear-solver failures are re-raised with the sweep index attached.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if maxit < 1:
        raise ValueError("maxit must be at least 1")

    state = State(prev.phi.copy(), prev.p1.copy(), prev.p2.copy(), problem.t_next)
    inc_l2: list[tuple[float, float, float]] = []
    stacked_inf: list[float] = []
    converged = False
    for sweep in range(maxit):
        with _failure_context(f"linear solve failed in gummel sweep {sweep + 1}"):
            new = gummel_step(problem, state)
        d1 = new.p1 - state.p1
        d2 = new.p2 - state.p2
        dphi = new.phi - state.phi
        inc_l2.append(tuple(float(np.linalg.norm(d)) for d in (d1, d2, dphi)))
        stacked_inf.append(max(float(np.abs(d1).max()), float(np.abs(d2).max())))
        state = new
        if sum(inc_l2[-1]) <= eps:
            converged = True
            break

    ratios = np.array([b / a for a, b in zip(stacked_inf, stacked_inf[1:]) if a > 0.0])
    nonzero = ratios[ratios > 0.0]
    report = GummelReport(
        iterations=len(inc_l2),
        converged=converged,
        increments_l2=np.array(inc_l2).reshape(-1, 3),
        ratios=ratios,
        alpha_bar=float(nonzero.mean()) if nonzero.size else float("nan"),
    )
    return state, report


@dataclass
class ContractionSummary:
    """Aggregate of contraction measurements over a transient run."""

    alpha_bar: float          # mean of the per-step means, NaN steps skipped
    max_ratio: float          # largest single ratio observed (NaN if none)


def contraction_stats(reports) -> ContractionSummary:
    """Time-averaged contraction factor over a list of step reports."""
    reports = list(reports)
    if not reports:
        raise ValueError("need at least one report")
    per_step = np.array([r.alpha_bar for r in reports])
    valid = per_step[~np.isnan(per_step)]
    all_ratios = np.concatenate([r.ratios for r in reports])
    return ContractionSummary(
        alpha_bar=float(valid.mean()) if valid.size else float("nan"),
        max_ratio=float(all_ratios.max()) if all_ratios.size else float("nan"),
    )
