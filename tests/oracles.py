"""Oracles: quantities the tests check that no study, CLI command or verdict needs, and the
reference forms that faster library kernels are pinned against."""

import numpy as np
import scipy.sparse as sp

from robinfem import build_dofmap, norm_matrix, reference_basis, triangle_rule
from robinfem.assembly import (
    _cells,
    _edge_facts,
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


def edge_classes(mesh, edges):
    """The class tuple (E,) of every edge of a table, read off the groups that _edge_facts memoizes."""
    classes = np.full(len(edges), -1)
    for c, ids in _edge_facts(mesh, edges)[0]:
        classes[ids] = c
    return classes


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
        parts.append((edges.element_ids, _edge_vector(mesh, scheme.degree, edges, 8, form(scheme, edges), trace)))
    defect = _vector(parts, dofmap)
    return float(np.max(np.abs(defect) / np.sqrt(norm_matrix(mesh, scheme, "augmented").diagonal())))


def triplet_pattern(ids, n):
    """The BSR pattern (bslots, indices, indptr) of the (E, k) block ids below n of parts, from one
    stable sort of the keys row*n + col of all their block triplets, with run starts from np.diff
    and rows and columns from np.divmod: bslots is the data block of every triplet (e, s, t), part
    by part; int32 unless n or the number of blocks is larger.  The reference that the library's
    incidence-product pattern must equal."""
    keys = np.concatenate([(d[:, :, None] * n + d[:, None, :]).ravel() for d in ids])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.diff(keys, prepend=-1) != 0
    rows, cols = np.divmod(keys[first], n)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    itype = np.int32 if max(n, len(cols)) <= np.iinfo(np.int32).max else np.int64
    bslots = np.empty(len(order), dtype=itype)
    bslots[order] = np.cumsum(first, dtype=itype) - 1
    return bslots, cols.astype(itype), indptr.astype(itype)


def block_ids(dofmap, elements):
    """The block ids of parts on (E, k) elements: each element's dofs in a continuous space, the
    element itself in a discontinuous one."""
    nb = 1 if dofmap.continuous else dofmap.cell_dofs.shape[1]
    blocks = dofmap.cell_dofs[:, ::nb] // nb
    return [blocks[e].reshape(len(e), e.shape[1] * blocks.shape[1]) for e in elements]


def tentative_by_reduceat(matrix, diag):
    """Smoothed aggregation's tentative T, smoother W and prolongation P of a CSR matrix with a
    positive diagonal, each neighbour maximum one np.maximum.reduceat over the gathered strength
    graph, as the solver took them until it laid the graph out in columns."""
    n = matrix.shape[0]
    indptr, indices = matrix.indptr, matrix.indices
    rows = np.repeat(np.arange(n), np.diff(indptr))
    on_diag = rows == indices
    root = np.sqrt(diag)
    strong = on_diag | (np.abs(matrix.data) >= 0.08 * root[rows] * root[indices])
    s_indices = indices[strong].astype(np.intp)
    s_start = np.concatenate(([0], np.cumsum(strong)[indptr[1:-1] - 1]))

    def neighbour_max(values):
        return np.maximum.reduceat(values[s_indices], s_start)

    priority = (np.arange(n, dtype=np.uint64) * 2654435761 % 2**32).astype(np.uint32)
    undecided = np.diff(np.append(s_start, len(s_indices))) > 1
    is_root = np.zeros(n, dtype=bool)
    while undecided.any():
        best = neighbour_max(neighbour_max(np.where(undecided, priority, 0)))
        new = undecided & (best == priority)
        is_root |= new
        undecided &= ~neighbour_max(neighbour_max(new))
    ids = np.where(is_root, np.cumsum(is_root) - 1, -1)
    agg = np.where(is_root, ids, neighbour_max(ids))
    agg = np.where(agg >= 0, agg, neighbour_max(agg))
    member = agg >= 0
    tentative = sp.csr_matrix(
        (np.ones(np.count_nonzero(member)), agg[member], np.concatenate(([0], np.cumsum(member)))),
        shape=(n, int(is_root.sum())),
    )
    scaled = matrix.data / diag[rows]
    omega = 4.0 / (3.0 * np.add.reduceat(np.abs(scaled), indptr[:-1]).max())
    smoother = sp.csr_matrix((-omega * scaled, indices, indptr), shape=(n, n))
    smoother.data[on_diag] += 1.0
    return tentative, omega * (1.0 / diag), smoother @ tentative
