"""Oracles: quantities the tests check that no study, CLI command or verdict needs."""

import numpy as np

from robinfem import build_dofmap, norm_matrix, reference_basis, triangle_rule
from robinfem.assembly import (
    _cells,
    _edge_kernel,
    _edge_tables,
    _edge_vector,
    _exact_trace,
    _is_boundary,
    _penalty_form,
    _robin_data,
    _robin_form,
    _vector,
)
from robinfem.errors import values_at


def consistency_residual(mesh, scheme, data):
    """Max normalized defect of the exact solution in the discrete system.

    Evaluates a_h(u, phi_i) - l_h(phi_i) with the analytic solution and
    gradient in place of u, using the high-order quadrature rules, and
    scales each entry by the augmented energy norm of phi_i, the square
    root of the diagonal of norm_matrix(mesh, scheme, "augmented").  On a
    mesh that fills the domain exactly this is quadrature-level small; on
    the disk it measures the boundary-skin perturbation.
    """
    basis, dofmap = reference_basis(scheme.degree), build_dofmap(mesh, scheme.degree, scheme.continuous)
    rule = triangle_rule(6)

    # volume: (grad u, grad phi_i) - (f, phi_i), at the rule points mapped once
    x = mesh.physical_points(rule.points)
    gu = np.asarray(data.exact_grad(x[..., 0], x[..., 1]), dtype=float)  # (T, q, 2)
    pulled = rule.weights[:, None] * (gu @ mesh.invB.transpose(0, 2, 1))  # B^-1 grad u
    stiffness = mesh.det[:, None] * np.tensordot(pulled, basis.eval_grad(rule.points), ([1, 2], [0, 2]))
    load = mesh.det[:, None] * ((values_at(data.f, x) * rule.weights) @ basis.eval(rule.points))
    parts = [(_cells(mesh), -load), (_cells(mesh), stiffness)]

    # edges: each edge form applied to the exact trace minus the data trace (none inside)
    for edges, form in zip(_edge_tables(mesh, scheme.method), (_robin_form, _penalty_form)):
        def trace(x, edges=edges):
            return _exact_trace(data, edges, x) - (_robin_data(scheme, data, x) if _is_boundary(edges) else 0.0)
        kernel = _edge_kernel(mesh, basis, edges, 8)
        parts.append((edges.element_ids, _edge_vector(kernel, form(scheme, edges), trace)))
    defect = _vector(parts, dofmap)
    return float(np.max(np.abs(defect) / np.sqrt(norm_matrix(mesh, scheme, "augmented").diagonal())))
