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

from .assembly import Method, _edge_dofs, _edge_traces, _Geometry
from .errors import DegenerateSequence, MissingExactSolution
from .felib import build_dofmap, edge_rule, reference_basis, triangle_rule

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


def l2_error(mesh, data, solution, dofmap, rule=None):
    """L2 distance between the exact solution and the finite element one."""
    _require_exact(data)
    basis = reference_basis(dofmap.degree)
    geom = _Geometry(mesh)
    rule = rule if rule is not None else triangle_rule(6)
    phi = basis.eval(rule.points)  # (q, nb)
    coeffs = solution[dofmap.cell_dofs]  # (T, nb)
    x = geom.physical_points(rule.points)
    exact = np.asarray(data.exact_u(x[..., 0], x[..., 1]), dtype=float)
    uh = np.einsum("ti,qi->tq", coeffs, phi)
    diff_sq = (exact - uh) ** 2
    total = float(np.einsum("tq,q,t->", diff_sq, rule.weights, geom.det))
    return math.sqrt(total)


def energy_error(mesh, scheme, data, solution, dofmap=None, volume_rule=None, boundary_rule=None):
    """Energy-norm error and its squared components.

    Returns (error, components) where components holds the squared
    contributions: gradient, boundary_trace, boundary_flux, and for the
    discontinuous scheme jump and interior_flux.
    """
    _require_exact(data)
    basis = reference_basis(scheme.degree)
    if dofmap is None:
        dofmap = build_dofmap(mesh, scheme.degree, continuous=scheme.continuous)
    geom = _Geometry(mesh)
    vrule = volume_rule if volume_rule is not None else triangle_rule(6)
    erule = boundary_rule if boundary_rule is not None else edge_rule(8)
    coeffs = solution[dofmap.cell_dofs]  # (T, nb)

    gref = basis.eval_grad(vrule.points)
    x = geom.physical_points(vrule.points)
    gu = np.asarray(data.exact_grad(x[..., 0], x[..., 1]), dtype=float)
    grad_sq = 0.0
    for q, w in enumerate(vrule.weights):
        g = np.einsum("ia,tab->tib", gref[q], geom.invB)
        guh = np.einsum("ti,tib->tb", coeffs, g)
        diff = gu[:, q] - guh
        grad_sq += float(np.sum(w * geom.det * np.sum(diff * diff, axis=1)))

    edges = mesh.boundary_edges
    nrm, h = edges.normal, edges.h_e
    ce = solution[_edge_dofs(dofmap, edges)]
    trace_sq = 0.0
    bflux_sq = 0.0
    for xq, w, vals, grads in _edge_traces(mesh, basis, edges, erule):
        uh = np.einsum("ei,ei->e", ce, vals)
        dnh = np.einsum("ei,ei->e", ce, np.einsum("eib,eb->ei", grads, nrm))
        ev = np.asarray(data.exact_u(xq[:, 0], xq[:, 1]), dtype=float) - uh
        en = np.einsum("eb,eb->e", np.asarray(data.exact_grad(xq[:, 0], xq[:, 1]), dtype=float), nrm) - dnh
        trace_sq += float(np.sum(w * h / (scheme.epsilon + h) * ev * ev))
        bflux_sq += float(np.sum(w * h * h * en * en))

    components = {
        "gradient": grad_sq,
        "boundary_trace": trace_sq,
        "boundary_flux": bflux_sq,
    }
    total = grad_sq + trace_sq + bflux_sq

    if scheme.method is Method.SIPDG:
        edges = mesh.interior_edges
        h = edges.h_e
        ce = solution[_edge_dofs(dofmap, edges)]
        jump_sq = 0.0
        iflux_sq = 0.0
        for xq, w, jump, mean in _edge_traces(mesh, basis, edges, erule):
            jh = np.einsum("ei,ei->e", ce, jump)
            gm = np.asarray(data.exact_grad(xq[:, 0], xq[:, 1]), dtype=float) - np.einsum("ei,eib->eb", ce, mean)
            jump_sq += float(np.sum(w * jh * jh))  # (1/h) cancels the h in wq
            iflux_sq += float(np.sum(w * h * h * np.sum(gm * gm, axis=1)))
        components["jump"] = jump_sq
        components["interior_flux"] = iflux_sq
        total += jump_sq + iflux_sq

    return math.sqrt(total), components


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


def error_report(mesh, scheme, data, solution, dofmap, level=None):
    """Bundle the error norms for one solve into an ErrorReport."""
    err_e, components = energy_error(mesh, scheme, data, solution, dofmap=dofmap)
    err_l2 = l2_error(mesh, data, solution, dofmap)
    err_n = math.sqrt(components["gradient"] + components["boundary_trace"])
    jump = None
    if "jump" in components:
        jump = math.sqrt(components["jump"])
    return ErrorReport(
        level=mesh.level if level is None else level,
        h_max=mesh.h_max,
        dof_count=dofmap.n_dofs,
        err_energy=err_e,
        err_n=err_n,
        err_l2=err_l2,
        jump_seminorm=jump,
    )
