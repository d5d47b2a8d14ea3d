"""Linear solvers for the assembled symmetric systems.

Two paths: preconditioned conjugate gradients for production runs, and a
dense Cholesky path for small validation problems.  Both refuse to hide
indefiniteness: CG raises IndefiniteMatrix the moment a search direction
has nonpositive curvature, and the dense path raises when the Cholesky
factorization breaks down.
"""

import enum
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import IndefiniteMatrix, InvalidParameter, NotConverged, TooLarge

__all__ = [
    "SolverMethod",
    "Preconditioner",
    "SolverConfig",
    "SolveReport",
    "solve",
    "min_eigenvalue_dense",
]

_DENSE_EIG_LIMIT = 2000


class SolverMethod(enum.Enum):
    CG = "cg"
    DENSE = "dense"


class Preconditioner(enum.Enum):
    NONE = "none"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class SolverConfig:
    method: SolverMethod = SolverMethod.CG
    rel_tolerance: float = 1e-10
    max_iterations: Optional[int] = None
    preconditioner: Preconditioner = Preconditioner.DIAGONAL

    def __post_init__(self):
        if not (0.0 < self.rel_tolerance < 1.0):
            raise InvalidParameter(
                f"rel_tolerance must lie in (0, 1), got {self.rel_tolerance}"
            )
        if self.max_iterations is not None and self.max_iterations < 1:
            raise InvalidParameter(
                f"max_iterations must be positive, got {self.max_iterations}"
            )


@dataclass
class SolveReport:
    iterations: int
    residual: float
    wall_time: float
    min_eigenvalue: Optional[float] = None


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
    if rhs is None:
        raise InvalidParameter("solve needs a right-hand side")
    if matrix.shape[0] != matrix.shape[1] or matrix.shape[0] != len(rhs):
        raise InvalidParameter("matrix and right-hand side sizes do not match")
    start = time.perf_counter()
    if config.method is SolverMethod.DENSE:
        x, report = _solve_dense(matrix, rhs)
    else:
        x, report = _solve_cg(matrix, rhs, config)
    report.wall_time = time.perf_counter() - start
    return x, report


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


def _solve_cg(matrix, rhs, config):
    matrix = sp.csr_matrix(matrix)
    n = matrix.shape[0]
    max_iter = config.max_iterations
    if max_iter is None:
        max_iter = int(20.0 * math.sqrt(n)) + 200
    if config.preconditioner is Preconditioner.DIAGONAL:
        diag = matrix.diagonal()
        if np.any(diag <= 0.0):
            raise IndefiniteMatrix("matrix has a nonpositive diagonal entry")
        inv_diag = 1.0 / diag
    else:
        inv_diag = np.ones(n)
    b_norm = np.linalg.norm(rhs)
    if b_norm == 0.0:
        return np.zeros(n), SolveReport(iterations=0, residual=0.0, wall_time=0.0)
    x = np.zeros(n)
    r = rhs.copy()
    z = inv_diag * r
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
        if rel <= config.rel_tolerance:
            return x, SolveReport(iterations=it, residual=rel, wall_time=0.0)
        z = inv_diag * r
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
