"""Linear solvers for the assembled symmetric systems.

Two paths: preconditioned conjugate gradients for production runs, and a
dense Cholesky path for small validation problems.  Both refuse to hide
indefiniteness: CG raises IndefiniteMatrix as soon as it meets a proof
that the matrix is not symmetric positive definite, and the dense path
raises when the Cholesky factorization breaks down.

The CG preconditioner (Preconditioner.TWO_LEVEL, the default) is
additive two-level:

    M^-1 r = D^-1 r + P (P^T A P)^-1 P^T r,

with D the diagonal of A and P the embedding of continuous P1 on the
same mesh (SparseSystem.prolongation), after Dobrev, Lazarov,
Vassilevski & Zikatanov, "Two-level preconditioning of discontinuous
Galerkin approximations of second-order elliptic equations" (NLAA
2006).  The coarse matrix is factored once per solve and dropped on
return.  Without a coarse space (a (matrix, rhs) tuple, or continuous
P1) it is exactly Jacobi.  Both terms are symmetric positive
semidefinite and D^-1 is definite, so M is SPD whenever A is, with no
damping condition.  Each of these is therefore a proof that A is not
SPD, and raises IndefiniteMatrix:

1. a nonpositive diagonal entry of A;
2. a coarse factor that pivots off the diagonal (perm_r != perm_c), is
   exactly singular, or has a nonpositive pivot diag(U) <= 0: P has
   full rank, so by Sylvester's law of inertia P^T A P is SPD if A is;
3. nonpositive curvature p.A.p <= 0 of a search direction, raised with
   the residual history so far.

Once 1 and 2 pass, M is SPD whatever A is, so r.z > 0 for every
nonzero residual and needs no check of its own.

A nan or inf in the matrix or the right-hand side is InvalidParameter
before either path runs.  A residual that still turns non-finite (by
overflow) stops CG at once with NotConverged, carrying its history.  Both
paths run on the right-hand side scaled by the power of two that brings
max|b| into [1/2, 1): the scaling is exact, so ordinary solves are
bitwise unchanged, and a tiny or huge b can neither underflow into a
false verdict nor overflow, in CG or in the dense residual.  A zero b
returns x = 0 at once.
"""

import enum
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import IndefiniteMatrix, InvalidParameter, NotConverged, TooLarge, is_count

__all__ = [
    "SolverMethod",
    "Preconditioner",
    "SolverConfig",
    "SolveReport",
    "solve",
    "min_eigenvalue_dense",
]

_DENSE_EIG_LIMIT = 2000
_EPS = float(np.finfo(float).eps)


class SolverMethod(enum.Enum):
    CG = "cg"
    DENSE = "dense"


class Preconditioner(enum.Enum):
    NONE = "none"
    TWO_LEVEL = "two_level"


@dataclass(frozen=True)
class SolverConfig:
    method: SolverMethod = SolverMethod.CG
    rel_tolerance: float = 1e-10
    max_iterations: Optional[int] = None
    preconditioner: Preconditioner = Preconditioner.TWO_LEVEL

    def __post_init__(self):
        # below machine epsilon the recursive residual can underflow p.A.p to 0
        if not (_EPS <= self.rel_tolerance < 1.0):
            raise InvalidParameter(
                f"rel_tolerance must lie in [{_EPS:.3g}, 1), got {self.rel_tolerance}"
            )
        if self.max_iterations is not None and not is_count(self.max_iterations, 1):
            raise InvalidParameter(
                f"max_iterations must be a positive integer, got {self.max_iterations!r}"
            )


@dataclass
class SolveReport:
    iterations: int
    residual: float
    wall_time: float
    min_eigenvalue: Optional[float] = None
    coarse_dofs: int = 0


def _matrix_rhs(system):
    """(matrix, rhs) of a SparseSystem, a (matrix, rhs) tuple, or a bare
    matrix, whose rhs is None."""
    if hasattr(system, "matrix"):
        return system.matrix, system.rhs
    if isinstance(system, tuple):
        return system
    return system, None


def solve(system, config=None):
    """Solve A x = b; returns (x, SolveReport)."""
    config = config if config is not None else SolverConfig()
    matrix, rhs = _matrix_rhs(system)
    prolongation = getattr(system, "prolongation", None)
    if rhs is None:
        raise InvalidParameter("solve needs a right-hand side")
    if matrix.shape[0] != matrix.shape[1] or matrix.shape[0] != len(rhs):
        raise InvalidParameter("matrix and right-hand side sizes do not match")
    if prolongation is not None and prolongation.shape[0] != len(rhs):
        raise InvalidParameter("prolongation rows do not match the matrix size")
    values = matrix.tocsr().data if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
    if not (np.isfinite(values).all() and np.isfinite(rhs).all()):
        raise InvalidParameter("matrix or right-hand side has a non-finite entry")
    start = time.perf_counter()
    # exact power-of-two scaling to max|b| in [1/2, 1), see the module docstring
    k = math.frexp(float(np.max(np.abs(rhs), initial=0.0)))[1]
    scaled = np.ldexp(rhs, -k)
    if config.method is SolverMethod.DENSE:
        x, report = _solve_dense(matrix, scaled)
    else:
        x, report = _solve_cg(matrix, scaled, config, prolongation)
    report.wall_time = time.perf_counter() - start
    return np.ldexp(x, k), report


def _solve_dense(matrix, rhs):
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
    dense = 0.5 * (dense + dense.T)  # symmetrize roundoff before factoring
    try:
        factor = scipy.linalg.cho_factor(dense, lower=True)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteMatrix(f"dense factorization failed: {exc}") from exc
    x = scipy.linalg.cho_solve(factor, rhs)
    resid = np.linalg.norm(dense @ x - rhs)
    scale = np.linalg.norm(rhs)
    resid = resid / scale if scale > 0.0 else resid
    report = SolveReport(iterations=1, residual=float(resid), wall_time=0.0)
    if dense.shape[0] <= _DENSE_EIG_LIMIT:
        report.min_eigenvalue = float(np.linalg.eigvalsh(dense)[0])
    return x, report


def _preconditioner(matrix, kind, prolongation):
    """(precond, coarse_dofs): z = precond(r) applies M^-1.

    Raises IndefiniteMatrix when setting M up proves that A is not SPD.
    """
    if kind is Preconditioner.NONE:
        return (lambda r: r.copy()), 0
    diag = matrix.diagonal()
    if np.any(diag <= 0.0):
        raise IndefiniteMatrix("matrix has a nonpositive diagonal entry")
    inv_diag = 1.0 / diag
    if prolongation is None:
        return (lambda r: inv_diag * r), 0
    restrict = sp.csr_matrix(prolongation.T)
    coarse = sp.csc_matrix(restrict @ matrix @ prolongation)
    try:
        factor = splu(
            coarse,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU: factor is exactly singular
        raise IndefiniteMatrix(f"coarse matrix P^T A P: {exc}") from exc
    if np.any(factor.perm_r != factor.perm_c):
        raise IndefiniteMatrix("coarse matrix P^T A P needs an off-diagonal pivot")
    pivots = factor.U.diagonal()
    if np.any(pivots <= 0.0):
        raise IndefiniteMatrix(
            f"coarse matrix P^T A P has a nonpositive pivot {pivots.min():.3e}"
        )

    def precond(r):
        return inv_diag * r + prolongation @ factor.solve(restrict @ r)

    return precond, coarse.shape[0]


def _solve_cg(matrix, rhs, config, prolongation):
    matrix = sp.csr_matrix(matrix)
    n = matrix.shape[0]
    max_iter = config.max_iterations
    if max_iter is None:
        max_iter = int(20.0 * math.sqrt(n)) + 200
    precond, coarse_dofs = _preconditioner(matrix, config.preconditioner, prolongation)
    b_norm = np.linalg.norm(rhs)
    if not np.any(rhs):
        return np.zeros(n), SolveReport(
            iterations=0, residual=0.0, wall_time=0.0, coarse_dofs=coarse_dofs
        )
    x = np.zeros(n)
    r = rhs.copy()
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    history = []
    for it in range(1, max_iter + 1):
        ap = matrix @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            raise IndefiniteMatrix(
                f"nonpositive curvature p.A.p = {pap:.3e} at iteration {it}",
                residual_history=history,
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        rel = float(np.linalg.norm(r) / b_norm)
        history.append(rel)
        if not math.isfinite(rel):
            raise NotConverged(
                f"non-finite residual at iteration {it}", residual_history=history
            )
        if rel <= config.rel_tolerance:
            return x, SolveReport(
                iterations=it, residual=rel, wall_time=0.0, coarse_dofs=coarse_dofs
            )
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NotConverged(
        f"no convergence in {max_iter} iterations (last rel residual {history[-1]:.3e})",
        residual_history=history,
    )


def min_eigenvalue_dense(system):
    """Smallest eigenvalue of the symmetrized matrix; refuses large systems."""
    matrix, _ = _matrix_rhs(system)
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
    n = dense.shape[0]
    if n > _DENSE_EIG_LIMIT:
        raise TooLarge(f"dense eigenvalue check limited to {_DENSE_EIG_LIMIT}, got {n}")
    dense = 0.5 * (dense + dense.T)
    return float(np.linalg.eigvalsh(dense)[0])
