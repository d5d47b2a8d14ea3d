"""Error norms and convergence rates.

The reported energy error is the mesh-dependent norm that the
convergence theory controls: the broken H1 seminorm, a boundary trace
term weighted by 1/(eps + h_E), edge flux terms weighted by h_E, and
for the discontinuous scheme the interior jump penalty.  Note the trace
weight uses h_E, not gamma*h_E; the two differ precisely when gamma is
small and the distinction matters for the eps-uniformity claims.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import Method, _check_space, _edge_error_sq
from .errors import DegenerateSequence, MissingExactSolution
from .felib import build_dofmap, reference_basis, triangle_rule

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


def _require_exact(data):
    if data.exact_u is None or data.exact_grad is None:
        raise MissingExactSolution("error norms need exact_u and exact_grad")


def l2_error(mesh, data, solution, dofmap):
    """L2 distance between the exact solution and the finite element one."""
    _require_exact(data)
    _check_space(mesh, dofmap, dofmap.degree, solution)
    rule = triangle_rule(6)
    x = mesh.physical_points(rule.points)
    uh = solution[dofmap.cell_dofs] @ reference_basis(dofmap.degree).eval(rule.points).T  # (T, q)
    diff = np.asarray(data.exact_u(x[..., 0], x[..., 1]), dtype=float) - uh
    return math.sqrt(float(mesh.det @ ((diff * diff) @ rule.weights)))


def energy_error(mesh, scheme, data, solution, dofmap=None):
    """Energy-norm error and its squared components.

    Returns (error, components) where components holds the squared
    contributions: gradient, boundary_trace, boundary_flux, and for the
    discontinuous scheme jump and interior_flux.  The edge components
    weight the error trace as the augmented norm_matrix does.  dofmap
    defaults to the numbering that assemble uses.
    """
    _require_exact(data)
    dofmap = build_dofmap(mesh, scheme.degree, scheme.continuous) if dofmap is None else dofmap
    _check_space(mesh, dofmap, scheme.degree, solution)
    basis = reference_basis(scheme.degree)
    vrule = triangle_rule(6)

    x = mesh.physical_points(vrule.points)
    guh = np.tensordot(solution[dofmap.cell_dofs], basis.eval_grad(vrule.points), (1, 1)) @ mesh.invB
    diff = np.asarray(data.exact_grad(x[..., 0], x[..., 1]), dtype=float) - guh  # (T, q, 2)
    grad_sq = float(mesh.det @ (np.sum(diff * diff, axis=2) @ vrule.weights))

    def edge_sq(edges):
        return _edge_error_sq(mesh, dofmap, basis, scheme, edges, data, solution).tolist()

    trace_sq, bflux_sq = edge_sq(mesh.boundary_edges)
    components = {"gradient": grad_sq, "boundary_trace": trace_sq, "boundary_flux": bflux_sq}
    if scheme.method is Method.SIPDG:
        jump_sq, dn_sq, dtau_sq = edge_sq(mesh.interior_edges)
        components.update(jump=jump_sq, interior_flux=dn_sq + dtau_sq)
    return math.sqrt(sum(components.values())), components


def eoc(errors):
    """Observed convergence orders from a list of (h, error) pairs.

    Consecutive pairs give log(e_i/e_{i+1}) / log(h_i/h_{i+1}).  Raises
    DegenerateSequence on nonpositive errors or nonincreasing mesh
    sizes; pairs where both errors sit at rounding level give nan.
    """
    errors = list(errors)
    if len(errors) < 2:
        raise DegenerateSequence("need at least two (h, error) pairs")
    rates = []
    for (h0, e0), (h1, e1) in zip(errors, errors[1:]):
        if not (h1 < h0):
            raise DegenerateSequence(f"mesh sizes must decrease, got {h0} -> {h1}")
        if e0 <= 0.0 or e1 <= 0.0:
            raise DegenerateSequence(f"errors must be positive, got {e0} -> {e1}")
        if e0 < _PLATEAU and e1 < _PLATEAU:
            rates.append(float("nan"))
        else:
            rates.append(math.log(e0 / e1) / math.log(h0 / h1))
    return rates


def error_report(mesh, scheme, data, solution, dofmap):
    """Bundle the error norms for one solve into an ErrorReport."""
    err_e, components = energy_error(mesh, scheme, data, solution, dofmap)
    err_l2 = l2_error(mesh, data, solution, dofmap)
    err_n = math.sqrt(components["gradient"] + components["boundary_trace"])
    jump = None
    if "jump" in components:
        jump = math.sqrt(components["jump"])
    return ErrorReport(
        level=mesh.level,
        h_max=mesh.h_max,
        dof_count=dofmap.n_dofs,
        err_energy=err_e,
        err_n=err_n,
        err_l2=err_l2,
        jump_seminorm=jump,
    )
