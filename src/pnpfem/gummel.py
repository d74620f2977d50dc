"""Decoupled fixed-point iteration for one implicit time step.

Each sweep first solves the potential equation with the concentrations of
the previous sweep frozen, then solves the two concentration systems with
the fresh potential frozen.  The iteration logic is scheme-agnostic: the
only scheme dependence sits behind ``assembly.assemble_np``.

Instrumentation: per-sweep increments are recorded in both the Euclidean
norm on nodal vectors (used by the stopping test) and the max norm, whose
successive ratios measure the contraction factor of the fixed-point map.

The last ratios of each step are limited by the resolution of the
concentration solves, not by the map.  Their residual target is
``linear_tol * ||b||``, and ``||b||`` is dominated by the Dirichlet identity
rows, which the warm start already satisfies: at h = 1/16, tau = 4h^2 (fem)
``||b||`` is 2,200-3,500 times the norm of ``b`` over the free rows, so
``linear_tol = 1e-12`` asks the free rows for a residual of only about 3e-9
times their own norm.  Late increments reach that level and then vanish
exactly (the iterate freezes), and the measured mean contraction factor
moves with ``linear_tol``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly
from .assembly import SchemeConfig
from .linalg import NonConvergenceError, SparseMatrix, solve_general, solve_spd, spmv
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

    def copy(self) -> "State":
        return State(self.phi.copy(), self.p1.copy(), self.p2.copy(), self.t)


@dataclass
class GummelReport:
    """Per-step iteration record.

    ``increments_l2``/``increments_max`` hold one row per sweep with columns
    (dP1, dP2, dPhi).  ``ratios`` are the successive max-norm ratios of the
    stacked concentration increments, defined from the second sweep on;
    ``alpha_bar`` is the mean of the nonzero ratios (NaN when none exists).
    An exactly zero ratio means an iterate froze at the Krylov solver's
    resolution, which carries no contraction information, so zeros are kept
    in the record but left out of the mean.  That resolution is set relative
    to a concentration right-hand side dominated by its Dirichlet rows (see
    the module docstring), so the last nonzero ratios of a step are limited
    by it as well, and ``alpha_bar`` depends on ``linear_tol``.
    """

    iterations: int
    converged: bool
    increments_l2: np.ndarray
    increments_max: np.ndarray
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
    """Frozen data of one implicit step: operators, loads, boundary values.

    ``f_np`` already contains tau * load + mass * previous concentrations;
    the solver only adds the scheme's stabilization contributions (which
    depend on the iterate's potential) and imposes boundary values.
    """

    mesh: BoxMesh
    cfg: SchemeConfig
    tau: float
    t_next: float
    poisson_matrix: SparseMatrix          # stiffness with identity boundary rows
    g_phi: np.ndarray                     # potential load vector
    bc_phi: np.ndarray                    # boundary values at the new level
    f_np: np.ndarray                      # (2, N) concentration right-hand sides
    bc_p: np.ndarray                      # (2, N) boundary values per species
    p_level: np.ndarray                   # (2, N) concentrations at the old level
    mass: np.ndarray                      # (N,) lumped mass: support volume / 4
    source_elem_int: np.ndarray | None = None  # (2, M) per-element source integrals


def _impose(values: np.ndarray, mask: np.ndarray, bc: np.ndarray) -> np.ndarray:
    out = values.copy()
    out[mask] = bc[mask]
    return out


def solve_potential(
    mesh: BoxMesh, cfg: SchemeConfig, matrix: SparseMatrix, load: np.ndarray,
    mass: np.ndarray, bc: np.ndarray, p, guess: np.ndarray,
) -> np.ndarray:
    """Potential for the frozen concentration pair ``p``.

    Solves ``matrix`` (stiffness with identity boundary rows) against
    load + sum_i z_i * mass * p_i, with the boundary values ``bc`` put into
    both the right-hand side and the initial guess.  Every potential solve
    of a run, sweeps and refreshes alike, goes through here.
    """
    bmask = mesh.boundary
    rhs = load.copy()
    for z, p_i in zip(cfg.charges, p):
        rhs += z * (mass * p_i)
    rhs = _impose(rhs, bmask, bc)
    x0 = _impose(guess, bmask, bc)
    return solve_spd(matrix, rhs, cfg.linear_tol, cfg.linear_maxit, x0=x0).x


def gummel_step(problem: StepProblem, iterate: State) -> State:
    """One decoupling sweep.

    The potential solve sees the concentrations of the given iterate; the
    concentration solves see the potential just computed.  Initial guesses
    reuse the iterate with boundary rows corrected, which both warm-starts
    the Krylov solvers and keeps the conjugate-gradient iteration on the
    free unknowns.
    """
    mesh = problem.mesh
    cfg = problem.cfg
    bmask = mesh.boundary

    prev_p = (iterate.p1, iterate.p2)
    phi_new = solve_potential(
        mesh, cfg, problem.poisson_matrix, problem.g_phi, problem.mass,
        problem.bc_phi, prev_p, iterate.phi,
    )

    p_new = []
    for i in range(2):
        system = assembly.assemble_np(mesh, phi_new, cfg, i, problem.tau)
        rhs_i = problem.f_np[i].copy()
        if system.stab_matrix is not None:
            rhs_i += spmv(system.stab_matrix, problem.p_level[i])
            if problem.source_elem_int is not None:
                rhs_i += problem.tau * assembly.stab_source_vector(
                    mesh, system, problem.source_elem_int[i]
                )
        rhs_i = _impose(rhs_i, bmask, problem.bc_p[i])
        guess = _impose(prev_p[i], bmask, problem.bc_p[i])
        p_new.append(
            solve_general(
                system.matrix, rhs_i, cfg.linear_tol, cfg.linear_maxit, x0=guess
            ).x
        )

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
    inc_max: list[tuple[float, float, float]] = []
    stacked_inf: list[float] = []
    converged = False
    for sweep in range(maxit):
        try:
            new = gummel_step(problem, state)
        except NonConvergenceError as exc:
            raise NonConvergenceError(
                f"linear solve failed in gummel sweep {sweep + 1}: {exc}",
                residual=exc.residual,
                iterations=exc.iterations,
            ) from exc
        d1 = new.p1 - state.p1
        d2 = new.p2 - state.p2
        dphi = new.phi - state.phi
        inc_l2.append(
            (
                float(np.linalg.norm(d1)),
                float(np.linalg.norm(d2)),
                float(np.linalg.norm(dphi)),
            )
        )
        inc_max.append(
            (
                float(np.abs(d1).max()),
                float(np.abs(d2).max()),
                float(np.abs(dphi).max()),
            )
        )
        stacked_inf.append(max(inc_max[-1][0], inc_max[-1][1]))
        state = new
        if sum(inc_l2[-1]) <= eps:
            converged = True
            break

    ratios = np.array(
        [
            stacked_inf[j + 1] / stacked_inf[j]
            for j in range(len(stacked_inf) - 1)
            if stacked_inf[j] > 0.0
        ]
    )
    nonzero = ratios[ratios > 0.0]
    report = GummelReport(
        iterations=len(inc_l2),
        converged=converged,
        increments_l2=np.array(inc_l2).reshape(-1, 3),
        increments_max=np.array(inc_max).reshape(-1, 3),
        ratios=ratios,
        alpha_bar=float(nonzero.mean()) if nonzero.size else float("nan"),
    )
    return state, report


@dataclass
class ContractionSummary:
    """Aggregate of contraction measurements over a transient run."""

    alpha_bar: float          # mean of the per-step means, NaN steps skipped
    per_step: np.ndarray      # one alpha_bar per report (may contain NaN)
    n_steps: int
    total_ratios: int
    max_ratio: float          # largest single ratio observed (NaN if none)


def contraction_stats(reports) -> ContractionSummary:
    """Time-averaged contraction factor over a list of step reports."""
    reports = list(reports)
    if not reports:
        raise ValueError("need at least one report")
    per_step = np.array([r.alpha_bar for r in reports])
    valid = per_step[~np.isnan(per_step)]
    all_ratios = np.concatenate([r.ratios for r in reports]) if reports else np.array([])
    return ContractionSummary(
        alpha_bar=float(valid.mean()) if valid.size else float("nan"),
        per_step=per_step,
        n_steps=len(reports),
        total_ratios=int(all_ratios.size),
        max_ratio=float(all_ratios.max()) if all_ratios.size else float("nan"),
    )
