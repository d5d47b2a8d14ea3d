"""Error norms and convergence rates.

The reported energy error is the mesh-dependent norm that the
convergence theory controls: the broken H1 seminorm, a boundary trace
term weighted by 1/(eps + h_E), edge flux terms weighted by h_E, and
for the discontinuous scheme the interior jump penalty.  Note the trace
weight uses h_E, not gamma*h_E; the two differ precisely when gamma is
small and the distinction matters for the eps-uniformity claims.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import Method, ProblemData, Scheme, _check_space, _dofmap, _edge_error_sq
from .errors import DegenerateSequence, MissingExactSolution, as_array, check_type, values_at
from .felib import DofMap, reference_basis, triangle_rule
from .mesh import _blocks

__all__ = ["ErrorReport", "energy_error", "l2_error", "eoc", "error_report"]

_PLATEAU = 1e-14


@dataclass
class ErrorReport:
    level: int
    h_max: float
    dof_count: int
    err_energy: float
    err_n: float
    err_l2: float
    jump_seminorm: Optional[float] = None
    eoc_energy: Optional[float] = None
    eoc_l2: Optional[float] = None


def _volume_error_sq(mesh, data, solution, dofmap):
    """(gradient, L2): the squared broken H1-seminorm and L2 errors, from one mapping of the
    rule-6 points and one call of exact_grad and exact_u per block of _BLOCK triangles."""
    rule, basis = triangle_rule(6), reference_basis(dofmap.degree)
    phi, dphi = basis.eval(rule.points).T, basis.eval_grad(rule.points)
    grad_w, u_w = np.empty(mesh.n_triangles), np.empty(mesh.n_triangles)  # each element's rule sums
    for cells in _blocks(mesh.n_triangles):
        x = mesh.physical_points(rule.points, cells)  # (t, q, 2)
        grad, u = values_at(data.exact_grad, x, (2,)), values_at(data.exact_u, x)
        del x  # freed before the (t, q, 2) products below, which lowers the peak memory
        local = solution[dofmap.cell_dofs[cells]]
        grad = grad - np.tensordot(local, dphi, (1, 1)) @ mesh.invB[cells]  # now the errors
        u = u - local @ phi
        grad_sq = grad[..., 0] * grad[..., 0] + grad[..., 1] * grad[..., 1]  # summed as np.sum(grad * grad, axis=2) sums
        grad_w[cells], u_w[cells] = grad_sq @ rule.weights, (u * u) @ rule.weights
    return float(mesh.det @ grad_w), float(mesh.det @ u_w)


def _require_exact(data):
    """Raise InvalidParameter unless data is a ProblemData, MissingExactSolution unless it has exact_u and exact_grad."""
    check_type(data, ProblemData, "data")
    if data.exact_u is None or data.exact_grad is None:
        raise MissingExactSolution("error norms need exact_u and exact_grad")


def l2_error(mesh, data, solution, dofmap):
    """L2 distance between the exact solution and the finite element one."""
    _require_exact(data)
    solution = as_array(solution, "biuf", "the solution must be real")
    check_type(dofmap, DofMap, "dofmap")  # before its degree is read
    _check_space(mesh, dofmap, reference_basis(dofmap.degree), solution)
    return math.sqrt(_volume_error_sq(mesh, data, solution, dofmap)[1])


def energy_error(mesh, scheme, data, solution, dofmap=None):
    """Energy-norm error and its squared components.

    Returns (error, components) where components holds the squared
    contributions: gradient, boundary_trace, boundary_flux, and for the
    discontinuous scheme jump and interior_flux.  The edge components
    weight the error trace as the augmented norm_matrix does.  dofmap
    defaults to the numbering that assemble uses.
    """
    return _errors(mesh, scheme, data, solution, dofmap)[:2]


def _errors(mesh, scheme, data, solution, dofmap):
    """(energy error, its squared components, L2 error, dof count) of one solution, on dofmap or,
    for None, the numbering that assemble uses: the mesh memo's map of the scheme's space."""
    check_type(scheme, Scheme, "scheme")
    _require_exact(data)
    dofmap = _dofmap(mesh, scheme.degree, scheme.continuous) if dofmap is None else dofmap
    solution = as_array(solution, "biuf", "the solution must be real")
    _check_space(mesh, dofmap, reference_basis(scheme.degree), solution)
    grad_sq, l2_sq = _volume_error_sq(mesh, data, solution, dofmap)
    trace_sq, bflux_sq = _edge_error_sq(mesh, dofmap, scheme, mesh.boundary_edges, data, solution)
    components = {"gradient": grad_sq, "boundary_trace": trace_sq, "boundary_flux": bflux_sq}
    if scheme.method is Method.SIPDG:
        jump_sq, dn_sq, dtau_sq = _edge_error_sq(mesh, dofmap, scheme, mesh.interior_edges, data, solution)
        components.update(jump=jump_sq, interior_flux=dn_sq + dtau_sq)
    return math.sqrt(sum(components.values())), components, math.sqrt(l2_sq), dofmap.n_dofs


def eoc(errors):
    """Observed convergence orders from a list of (h, error) pairs.

    Consecutive pairs give log(e_i/e_{i+1}) / log(h_i/h_{i+1}).  Raises
    DegenerateSequence unless every h and error is a positive finite real
    number (not a bool) and the mesh sizes decrease; pairs where both
    errors sit at rounding level give nan.
    """
    try:
        errors = [(h, e) for h, e in errors]
    except (TypeError, ValueError):  # not iterable, or an item that is not a pair
        raise DegenerateSequence("need a sequence of (h, error) pairs") from None
    if len(errors) < 2:
        raise DegenerateSequence("need at least two (h, error) pairs")
    for h, e in errors:
        # a bool is a numbers.Real, and a NaN fails every comparison
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and 0.0 < v < math.inf for v in (h, e)):
            raise DegenerateSequence(f"mesh sizes and errors must be positive finite real numbers, got h={h}, error={e}")
    rates = []
    for (h0, e0), (h1, e1) in zip(errors, errors[1:]):
        if not (h1 < h0):
            raise DegenerateSequence(f"mesh sizes must decrease, got {h0} -> {h1}")
        if e0 < _PLATEAU and e1 < _PLATEAU:
            rates.append(float("nan"))
        else:
            rates.append(math.log(e0 / e1) / math.log(h0 / h1))
    return rates


def error_report(mesh, scheme, data, solution, dofmap):
    """Bundle the error norms for one solve into an ErrorReport."""
    err_e, components, err_l2, dof_count = _errors(mesh, scheme, data, solution, dofmap)
    err_n = math.sqrt(components["gradient"] + components["boundary_trace"])
    jump = None
    if "jump" in components:
        jump = math.sqrt(components["jump"])
    return ErrorReport(
        level=mesh.level,
        h_max=mesh.h_max,
        dof_count=dof_count,
        err_energy=err_e,
        err_n=err_n,
        err_l2=err_l2,
        jump_seminorm=jump,
    )
