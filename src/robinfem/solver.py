"""Linear solvers for the assembled symmetric systems.

Two paths: preconditioned conjugate gradients for production runs, and a
dense Cholesky path for small validation problems.  Both refuse to hide
indefiniteness: CG raises IndefiniteMatrix as soon as it meets a proof
that the matrix is not symmetric positive definite, and the dense path
raises when the Cholesky factorization breaks down.

The CG preconditioner (Preconditioner.MULTILEVEL, the default) is the
multilevel B_0 of the hierarchy A_0 = A, A_k+1 = P_k^T A_k P_k, each
level set up by one recursive call (_level) that checks D_k, the
diagonal of A_k, picks P_k and returns B_k as a function r -> z, with
B_L = A_L^-1 (SuperLU) at the bottom.  A level whose P_k is given is
additive:

    B_k r = D_k^-1 r + P_k B_k+1(P_k^T r).

That P_0 is the embedding of continuous P1 on the same mesh
(SparseSystem.prolongation), after Dobrev, Lazarov, Vassilevski &
Zikatanov, "Two-level preconditioning of discontinuous Galerkin
approximations of second-order elliptic equations" (NLAA 2006).  Below
it (from A itself for continuous P1 and for a (matrix, rhs) pair, which
have no such space), smoothed aggregation (Vanek, Mandel & Brezina,
Computing 1996) adds levels while the coarsest matrix has more than
_DIRECT_LIMIT = 5000 dofs, and each such level is a symmetric V(2,2)
cycle with the smoother W that smooths P_k below, which
_smoothed_aggregation returns with P_k: from x = 0, two sweeps
x += W (r - A_k x), the coarse correction x += P_k B_k+1(P_k^T (r - A_k x)),
and two more sweeps.

- strength: j is a strong neighbour of i if |a_ij| >= 0.08 sqrt(a_ii a_jj);
- roots: a distance-2 independent set of the strength graph, chosen in
  rounds by the fixed priority i * 2654435761 mod 2^32 (no random
  stream); a root and its strong neighbours form an aggregate, and a
  second pass attaches their strong neighbours; a node with no strong
  neighbour joins no aggregate (a zero row of T) and is left to W.
  Each of these steps is a maximum over every row's strong neighbours.
  The strength graph is laid out once as a table of each row's first
  2 nnz / n + 1 neighbours, so every maximum is one np.maximum per
  column; a longer row (a dense row of a (matrix, rhs) pair) is taken
  whole by reduceat, so the layout holds at most 3 nnz table entries
  and nnz long-row entries;
- P = (I - W A) T, with T the 0/1 aggregate indicator and the damped
  Jacobi smoother W = omega D^-1, omega = 4/(3 rho), rho = ||D^-1 A||_inf.

The limit is where a factor stops paying for itself (2-core x86_64):
SuperLU took 55-90 ms, then 2.7 ms per iteration, on the 12,481-dof P1
coarse space of the Nitsche P2 level-4 sweep, whose four SPD solves took
0.37-0.42 s at 22-23 iterations.  One aggregation level under it (about
1,500 dofs) takes them to 24-29 iterations and 0.26 s as a V-cycle, and
to 39-49 iterations and 0.30 s applied additively.  Under the 3,169-dof
P1 coarse space of SIPDG P1 level 3, one V-cycle level of 390 dofs gives
34 iterations against 32, 0.023 against 0.027 s; that space stays
direct.  V-cycles on the given P_0 level too, or V(1,1) cycles, were
slower on the sweep.  The hierarchy is built once per solve and dropped
on return.

With E = I - W A_k and g(mu) = (1 - (1 - mu)^4) / mu, g(0) = 4, a V-cycle
level is

    B_k = sum_{i<4} E^i W + E^2 P_k B_k+1 P_k^T (E^2)^T
        = W^1/2 g(H) W^1/2 + E^2 P_k B_k+1 P_k^T (E^2)^T,  H = W^1/2 A_k W^1/2.

Every eigenvalue mu of H, one of omega D_k^-1 A_k, has |mu| <= omega rho
= 4/3, and g > 0 on (-inf, 2), so the first term is SPD whatever A_k is.
Every D_k^-1 and W is SPD once D_k is positive, every coarse term is
symmetric positive semidefinite once B_k+1 is SPD, and B_L is SPD once
its factor passes the checks below, so B_0 is SPD with no condition on
A.  Each of these is therefore a proof that A is not SPD, and raises
IndefiniteMatrix:

1. a nonpositive diagonal entry of some A_k, checked level by level;
2. a bottom factor that pivots off the diagonal (perm_r != perm_c), is
   exactly singular, or has a nonpositive pivot diag(U) <= 0;
3. nonpositive curvature p.A.p <= 0 of a search direction, raised with
   the residual history so far.

For 1 and 2 the proof is Sylvester's law of inertia: A_k = Q^T A Q, with
Q = P_0 ... P_k-1, is SPD if A is and Q has full column rank.  The P1
embedding has full column rank.  A given P_0 must be real, finite and
2-D, with n rows, at most n columns and a nonzero in each column
(InvalidParameter otherwise); other rank deficiency is not detected, and
can make 1 or 2 raise on an SPD A.  T has full column rank: its columns
indicate disjoint, non-empty aggregates (each holds its root).  The smoothed
P = (I - W A) T keeps it unless some nonzero T c is an eigenvector of
D^-1 A for exactly the eigenvalue 3 rho / 4, a coincidence that is not
checked.  Once 1 and 2 pass, B_0 is SPD, so r.z > 0 for every nonzero
residual and needs no check of its own.

CG stops when the recursive residual has ||r|| <= rel_tolerance ||b||,
which bounds the error only through the conditioning:
||x - x*|| / ||x*|| <= cond(A) rel_tolerance.  Where a few rows dominate
b that bound says nothing about the others.  Nitsche P1 at gamma = 0,
eps = 1e-20 (level 0, boundary rows ~1e19, interior ones ~0.03) stops
with ||D^-1/2 r|| / ||D^-1/2 b|| = 1.3e-11 as well, while the interior
rows keep a residual of 2.0 times their own right-hand side and x is
6.6 % off the dense answer.

A nan or inf in the matrix or the right-hand side is InvalidParameter
before either path runs.  A residual that still turns non-finite (by
overflow) stops CG at once with NotConverged, carrying its history.  Both
paths run on the right-hand side scaled by the power of two that brings
max|b| into [1/2, 1): the scaling is exact, so ordinary solves are
bitwise unchanged, and a tiny or huge b can neither underflow into a
false verdict nor overflow, in CG or in the dense residual.  A zero b
returns x = 0 without an iteration, but only after the set-up (the
hierarchy or the dense factor), so an indefinite A still raises
IndefiniteMatrix.
"""

import enum
import functools
import math
import numbers
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import IndefiniteMatrix, InvalidParameter, NotConverged, TooLarge, as_array, check_type, is_count

__all__ = [
    "SolverMethod",
    "Preconditioner",
    "SolverConfig",
    "SolveReport",
    "solve",
    "min_eigenvalue_dense",
]

_DENSE_EIG_LIMIT = 2000
_DIRECT_LIMIT = 5000  # SuperLU factors no larger matrix; coarser levels are added above it
_STRENGTH = 0.08
_PRIORITY_HASH = 2654435761
_EPS = float(np.finfo(float).eps)


class SolverMethod(enum.Enum):
    CG = "cg"
    DENSE = "dense"


class Preconditioner(enum.Enum):
    NONE = "none"
    MULTILEVEL = "multilevel"


@dataclass(frozen=True)
class SolverConfig:
    method: SolverMethod = SolverMethod.CG
    rel_tolerance: float = 1e-10
    max_iterations: Optional[int] = None
    preconditioner: Preconditioner = Preconditioner.MULTILEVEL

    def __post_init__(self):
        check_type(self.method, SolverMethod, "method")
        check_type(self.preconditioner, Preconditioner, "preconditioner")
        # below machine epsilon the recursive residual can underflow p.A.p to 0
        if not (isinstance(self.rel_tolerance, numbers.Real) and _EPS <= self.rel_tolerance < 1.0):
            raise InvalidParameter(
                f"rel_tolerance must be a real number in [{_EPS:.3g}, 1), got {self.rel_tolerance!r}"
            )
        if self.max_iterations is not None and not is_count(self.max_iterations, 1):
            raise InvalidParameter(
                f"max_iterations must be a positive integer, got {self.max_iterations!r}"
            )


@dataclass
class SolveReport:
    iterations: int
    residual: float
    wall_time: float = 0.0  # set by solve
    coarse_dofs: int = 0


def solve(system, config=None):
    """Solve A x = b for a SparseSystem or a (matrix, rhs) pair; returns (x, SolveReport)."""
    config = config if config is not None else SolverConfig()
    check_type(config, SolverConfig, "the solver config")
    if not (hasattr(system, "matrix") or isinstance(system, tuple) and len(system) == 2):
        raise InvalidParameter(f"solve needs a SparseSystem or a (matrix, rhs) pair, got a {type(system).__name__}")
    matrix, rhs = (system.matrix, system.rhs) if hasattr(system, "matrix") else system
    prolongation = getattr(system, "prolongation", None)
    matrix, rhs = _checked(matrix), as_array(rhs, "biuf", "the right-hand side must be real")  # the one matrix every path reads
    if rhs.dtype.kind not in "biuf" or rhs.shape != (matrix.shape[0],):
        raise InvalidParameter(f"solve needs a real rhs of {matrix.shape[0]} entries, got {rhs.dtype} values of shape {rhs.shape}")
    if not np.isfinite(rhs).all():
        raise InvalidParameter("the right-hand side has a non-finite entry")
    if prolongation is not None:  # O(nnz(P)), with no format conversion of a CSR P
        prolongation, n = _checked(prolongation, "the prolongation", square=False), len(rhs)
        if not (prolongation.shape[0] == n >= prolongation.shape[1] and np.bincount(
                prolongation.indices[prolongation.data != 0], minlength=prolongation.shape[1]).all()):
            raise InvalidParameter(f"the prolongation must have {n} rows, at most {n} columns and a nonzero "
                                   f"in each column, got shape {prolongation.shape}")
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


def _checked(matrix, name="the matrix", square=True):
    """matrix as a float CSR matrix; raises InvalidParameter, naming it,
    unless it is real, finite and 2-D, and square if square."""
    array = matrix if sp.issparse(matrix) else as_array(matrix, "biuf", f"{name} must be real")
    if array.dtype.kind not in "biuf" or array.ndim != 2 or square and array.shape[0] != array.shape[1]:
        raise InvalidParameter(f"{name} must be real, 2-D{' and square' * square}, got {array.dtype} values of shape {array.shape}")
    array = sp.csr_matrix(array, dtype=float)
    if not np.isfinite(array.data).all():
        raise InvalidParameter(f"{name} has a non-finite entry")
    return array


def _symmetric_dense(matrix):
    """The dense symmetric part of a CSR matrix, which drops roundoff asymmetry."""
    dense = matrix.toarray()
    return 0.5 * (dense + dense.T)


def _solve_dense(matrix, rhs):
    if matrix.shape[0] > _DIRECT_LIMIT:
        raise TooLarge(f"the dense solve is limited to {_DIRECT_LIMIT} dofs, got {matrix.shape[0]}")
    dense = _symmetric_dense(matrix)
    try:
        factor = scipy.linalg.cho_factor(dense, lower=True)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteMatrix(f"dense factorization failed: {exc}") from exc
    x = scipy.linalg.cho_solve(factor, rhs)
    resid = np.linalg.norm(dense @ x - rhs) / (np.linalg.norm(rhs) or 1.0)
    return x, SolveReport(iterations=1, residual=float(resid))


def _level(matrix, prolongation, depth):
    """(B_k, bottom_dofs) of the level-depth matrix A_k: z = B_k(r), and
    bottom_dofs is the size of the factored bottom matrix (0 for Jacobi).  P_k
    is prolongation, or if A_k is above _DIRECT_LIMIT smoothed aggregation's,
    whose level is a V(2,2) cycle.  Raises IndefiniteMatrix when the set-up proves A not SPD."""
    diag = matrix.diagonal()
    if np.any(diag <= 0.0):
        where = f"level-{depth} matrix P^T A P" if depth else "matrix"
        raise IndefiniteMatrix(f"{where} has a nonpositive diagonal entry")
    inv_diag, n, weight = 1.0 / diag, matrix.shape[0], None
    if prolongation is None and n > _DIRECT_LIMIT:
        weight, prolongation = _smoothed_aggregation(matrix, diag)
        if not 0 < prolongation.shape[1] < n:
            prolongation = None  # no coarser level
    if prolongation is None:
        if depth and n <= _DIRECT_LIMIT:
            return _bottom_factor(matrix).solve, n
        return (lambda r: inv_diag * r), 0
    restrict = sp.csr_matrix(prolongation.T)
    coarse, bottom_dofs = _level(sp.csr_matrix(restrict @ matrix @ prolongation), None, depth + 1)
    if weight is None:
        return (lambda r: inv_diag * r + prolongation @ coarse(restrict @ r)), bottom_dofs

    def cycle(r):  # symmetric V(2,2): two Jacobi sweeps from 0, the coarse correction, two sweeps
        x = weight * r
        x += weight * (r - matrix @ x)
        x += prolongation @ coarse(restrict @ (r - matrix @ x))
        for _ in range(2):
            x += weight * (r - matrix @ x)
        return x
    return cycle, bottom_dofs


def _bottom_factor(matrix):
    """SuperLU factor of the bottom matrix, refused unless it proves SPD-ness."""
    try:
        factor = splu(
            sp.csc_matrix(matrix),
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
    return factor


def _layout(s_indices, s_end):
    """The rows of a graph (s_indices, row i ending at s_end[i], none empty) laid out for
    _neighbour_max: a (width, n) table of every row's first width entries, a short row
    repeating its last, with width at most 2 nnz / n + 1, so at most 3 nnz entries; and the
    rows longer than that, whole, for reduceat (at most nnz entries)."""
    degree = np.diff(s_end, prepend=0)
    width = min(int(degree.max()), 2 * len(s_indices) // len(s_end) + 1)
    table = s_indices[np.minimum(s_end - degree + np.arange(width)[:, None], s_end - 1)]
    long = degree > width
    return table, long, s_indices[np.repeat(long, degree)], np.cumsum(degree[long]) - degree[long]


def _neighbour_max(layout, values):
    """The maximum of values over every row of a _layout: one np.maximum per table column,
    and reduceat on the long rows (max is exact, so any order gives the same)."""
    table, long, long_indices, long_start = layout
    out = values[table[0]]
    for column in table[1:]:
        np.maximum(out, values[column], out=out)
    if long_start.size:
        out[long] = np.maximum.reduceat(values[long_indices], long_start)
    return out


def _tentative(matrix, diag, rows):
    """The 0/1 aggregate indicator T of smoothed aggregation on a CSR matrix
    with a positive diagonal, rows holding each entry's row; see the module docstring."""
    n = matrix.shape[0]
    indptr, indices = matrix.indptr, matrix.indices
    root = np.sqrt(diag)  # sqrt(a_ii) sqrt(a_jj) cannot overflow where a_ii a_jj would
    strong = (rows == indices) | (np.abs(matrix.data) >= _STRENGTH * root[rows] * root[indices])
    # the strength graph, each row holding its diagonal, so no row is empty, laid out once
    s_end = np.cumsum(strong)[indptr[1:] - 1]
    neighbour_max = functools.partial(_neighbour_max, _layout(indices[strong].astype(np.intp), s_end))

    # roots: a distance-2 independent set, by a fixed priority, in rounds
    # uint32, where 0 also stands for a decided node: only node 0 has priority 0,
    # and the smallest priority never outranks an undecided neighbour anyway
    priority = (np.arange(n, dtype=np.uint64) * _PRIORITY_HASH % 2**32).astype(np.uint32)
    undecided = np.diff(s_end, prepend=0) > 1
    is_root = np.zeros(n, dtype=bool)
    while undecided.any():
        best = neighbour_max(neighbour_max(np.where(undecided, priority, 0)))
        new = undecided & (best == priority)
        is_root |= new
        undecided &= ~neighbour_max(neighbour_max(new))
    ids = np.where(is_root, np.cumsum(is_root) - 1, -1)
    agg = np.where(is_root, ids, neighbour_max(ids))  # a root and its neighbours
    agg = np.where(agg >= 0, agg, neighbour_max(agg))  # then their neighbours
    member = agg >= 0
    return sp.csr_matrix(
        (np.ones(np.count_nonzero(member)), agg[member], np.concatenate(([0], np.cumsum(member)))),
        shape=(n, int(is_root.sum())),
    )


def _smoothed_aggregation(matrix, diag):
    """(W, P) of a CSR matrix A with a positive diagonal D: the damped Jacobi
    smoother W = omega D^-1, omega = 4/(3 ||D^-1 A||_inf), and the prolongation
    P = (I - W A) T it smooths; see the module docstring."""
    indptr = matrix.indptr
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(indptr))
    tentative = _tentative(matrix, diag, rows)  # first: its graph is freed before S is built
    scaled = matrix.data / diag[rows]
    omega = 4.0 / (3.0 * np.add.reduceat(np.abs(scaled), indptr[:-1]).max())
    smoother = sp.csr_matrix((-omega * scaled, matrix.indices, indptr), shape=matrix.shape)
    smoother.data[rows == matrix.indices] += 1.0
    return omega * (1.0 / diag), smoother @ tentative


def _solve_cg(matrix, rhs, config, prolongation):
    n = matrix.shape[0]
    max_iter = config.max_iterations or int(20.0 * math.sqrt(n)) + 200
    if config.preconditioner is Preconditioner.NONE:
        precond, coarse_dofs = (lambda r: r.copy()), 0
    else:
        precond, coarse_dofs = _level(matrix, prolongation, 0)
    b_norm = np.linalg.norm(rhs)
    if not np.any(rhs):
        return np.zeros(n), SolveReport(iterations=0, residual=0.0, coarse_dofs=coarse_dofs)
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
            return x, SolveReport(iterations=it, residual=rel, coarse_dofs=coarse_dofs)
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NotConverged(
        f"no convergence in {max_iter} iterations (last rel residual {history[-1]:.3e})",
        residual_history=history,
    )


def min_eigenvalue_dense(matrix):
    """Smallest eigenvalue of the symmetrized matrix; refuses large, empty and invalid matrices."""
    matrix = _checked(matrix)
    if matrix.shape[0] == 0:
        raise InvalidParameter("an empty matrix has no eigenvalue")
    if matrix.shape[0] > _DENSE_EIG_LIMIT:
        raise TooLarge(f"dense eigenvalue check limited to {_DENSE_EIG_LIMIT}, got {matrix.shape[0]}")
    return float(np.linalg.eigvalsh(_symmetric_dense(matrix))[0])
