"""Assembly of the boundary-weighted stiffness systems.

Both schemes share the same boundary treatment: on each boundary edge the
Robin data enters through the weights

    c1 = gamma*h_E / (eps + gamma*h_E)
    c2 = 1 / (eps + gamma*h_E)
    c3 = eps*gamma*h_E / (eps + gamma*h_E)

which interpolate between a clean Robin term (gamma -> 0) and a
penalty-dominated Dirichlet-like term (eps -> 0).  The discontinuous
scheme adds the symmetric interior-penalty coupling on interior edges.

Every edge integral walks one trace kernel.  On an interior edge it
gives the jump [v] = v1 - v2 along the normal n1 and the average
{grad v} = (grad v1 + grad v2)/2; on a boundary edge [v] = v and
{grad v} = grad v.  The volume stiffness is the exact contraction of a
reference tensor with each element's geometry tensor.

Triplet accumulation is compressed with a stable lexicographic sort and
an in-order segmented reduction, so assembled matrices are bitwise
reproducible for a fixed mesh and scheme.
"""

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParameter, MissingExactSolution, SchemeMismatch
from .felib import (
    DofMap,
    build_dofmap,
    edge_rule,
    reference_basis,
    triangle_rule,
)

__all__ = [
    "Method",
    "Scheme",
    "ProblemData",
    "SparseSystem",
    "robin_weights",
    "assemble",
    "assemble_volume",
    "assemble_nitsche_boundary",
    "assemble_interior_penalty",
    "assemble_load",
    "norm_matrix",
    "consistency_residual",
    "write_matrix",
]


class Method(enum.Enum):
    NITSCHE = "nitsche"
    SIPDG = "sipdg"


@dataclass(frozen=True)
class Scheme:
    """Discretization choice: method, polynomial degree, Robin parameters."""

    method: Method
    degree: int = 1
    epsilon: float = 1.0
    gamma: float = 0.1

    def __post_init__(self):
        if self.method not in (Method.NITSCHE, Method.SIPDG):
            raise InvalidParameter(f"unknown method {self.method!r}")
        if self.degree not in (1, 2):
            raise InvalidParameter(f"degree must be 1 or 2, got {self.degree}")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise InvalidParameter(f"epsilon must be positive, got {self.epsilon}")
        if not (self.gamma >= 0.0 and math.isfinite(self.gamma)):
            raise InvalidParameter(f"gamma must be nonnegative, got {self.gamma}")
        if self.method is Method.SIPDG and self.gamma == 0.0:
            raise InvalidParameter("interior penalty needs gamma > 0")

    @property
    def continuous(self):
        return self.method is Method.NITSCHE


@dataclass(frozen=True)
class ProblemData:
    """Right-hand side and boundary data, plus the exact solution if known.

    All callables take coordinate arrays (x, y); exact_grad returns an
    array with a trailing axis of length 2.
    """

    f: Callable
    u0: Callable
    g: Callable
    exact_u: Optional[Callable] = None
    exact_grad: Optional[Callable] = None


@dataclass
class SparseSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap


def robin_weights(scheme, h_e):
    """Robin edge weights (c1, c2, c3); h_e may be an array."""
    denom = scheme.epsilon + scheme.gamma * h_e
    c1 = scheme.gamma * h_e / denom
    c2 = 1.0 / denom
    c3 = scheme.epsilon * scheme.gamma * h_e / denom
    return c1, c2, c3


def _default_volume_rule(degree):
    return triangle_rule(4 if degree == 1 else 6)


def _default_edge_rule(degree):
    return edge_rule(4 if degree == 1 else 8)


class _Geometry:
    """Per-element affine maps x = v0 + B xi, cached for one mesh."""

    def __init__(self, mesh):
        tris = mesh.triangles
        verts = mesh.vertices
        p0 = verts[tris[:, 0]]
        e1 = verts[tris[:, 1]] - p0
        e2 = verts[tris[:, 2]] - p0
        self.v0 = p0
        self.B = np.stack([e1, e2], axis=-1)  # columns are edge vectors
        self.det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        inv = np.empty_like(self.B)
        inv[:, 0, 0] = e2[:, 1]
        inv[:, 0, 1] = -e2[:, 0]
        inv[:, 1, 0] = -e1[:, 1]
        inv[:, 1, 1] = e1[:, 0]
        self.invB = inv / self.det[:, None, None]

    def physical_points(self, ref_points):
        """Map reference points (q, 2) into every element: (T, q, 2)."""
        return self.v0[:, None, :] + np.einsum("qa,tba->tqb", ref_points, self.B)

    def traces(self, basis, elem_ids, x):
        """Basis values and physical gradients of the chosen elements at
        physical points x (one point per row)."""
        v0 = self.v0[elem_ids]
        invB = self.invB[elem_ids]
        ref = np.einsum("eab,eb->ea", invB, x - v0)
        vals = basis.eval(ref)
        grads = np.einsum("eia,eab->eib", basis.eval_grad(ref), invB)
        return vals, grads


def _edge_traces(mesh, basis, edges, rule):
    """Walk the points of an edge rule over every edge of one table.

    Yields (x, w, jump, mean) per point: the points x (E, 2), the scalar
    rule weight w (the caller multiplies in h_E), the stacked basis values
    jump (E, k*nb) and gradients mean (E, k*nb, 2) of the k elements of
    each edge.  On a boundary table (k = 1) these are the trace and its
    gradient; on an interior table (k = 2) they are [v1, -v2] and
    (grad v1 + grad v2) / 2, with v1 on element_ids[:, 0].
    """
    geom = _Geometry(mesh)
    pa, pb = mesh.vertices[edges.vertex_ids.T]
    elems = edges.element_ids
    for t, w in zip(rule.points, rule.weights):
        x = pa + t * (pb - pa)
        traces = [geom.traces(basis, elems[:, s], x) for s in range(elems.shape[1])]
        if len(traces) == 1:
            jump, mean = traces[0]
        else:
            (v1, g1), (v2, g2) = traces
            jump = np.concatenate([v1, -v2], axis=1)
            mean = 0.5 * np.concatenate([g1, g2], axis=1)
        yield x, w, jump, mean


def _edge_dofs(dofmap, edges):
    """Global dofs of the k elements of every edge, stacked: (E, k*nb)."""
    width = edges.element_ids.shape[1] * dofmap.cell_dofs.shape[1]
    return dofmap.cell_dofs[edges.element_ids].reshape(len(edges), width)


def _compress(dofs, blocks, n):
    """Deterministic COO -> CSR of (E, k, k) blocks indexed by (E, k) dofs:
    stable lexsort, in-order segment sums."""
    k = dofs.shape[1]
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    vals = blocks.ravel()
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    is_first = np.ones(len(vals), dtype=bool)
    is_first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(is_first)
    summed = np.add.reduceat(vals, starts)
    return sp.csr_matrix((summed, (rows[starts], cols[starts])), shape=(n, n))


def assemble_volume(mesh, dofmap, basis, rule=None):
    """Stiffness contribution (grad w, grad v) over all elements.

    K[a, b, i, j] = sum_q w_q d_a phi_i d_b phi_j is built once from the
    rule and contracted with det * B^-1 B^-T of every element.
    """
    rule = rule if rule is not None else _default_volume_rule(basis.degree)
    geom = _Geometry(mesh)
    gref = basis.eval_grad(rule.points)  # (q, nb, 2)
    k_ref = np.einsum("q,qia,qjb->abij", rule.weights, gref, gref)
    g_geo = np.einsum("t,tac,tbc->tab", geom.det, geom.invB, geom.invB)
    blocks = np.einsum("tab,abij->tij", g_geo, k_ref)
    return _compress(dofmap.cell_dofs, blocks, dofmap.n_dofs)


def assemble_nitsche_boundary(mesh, dofmap, basis, scheme, rule=None):
    """Boundary form shared by both schemes (the c1/c2/c3 edge terms)."""
    rule = rule if rule is not None else _default_edge_rule(basis.degree)
    edges = mesh.boundary_edges
    nrm, h = edges.normal, edges.h_e
    c1, c2, c3 = robin_weights(scheme, h)
    blocks = 0.0
    for _, w, vals, grads in _edge_traces(mesh, basis, edges, rule):
        dn = np.einsum("eib,eb->ei", grads, nrm)
        wq = w * h
        mass = np.einsum("e,ei,ej->eij", wq, vals, vals)
        flux = np.einsum("e,ei,ej->eij", wq, dn, vals)
        flux2 = np.einsum("e,ei,ej->eij", wq, dn, dn)
        blocks += (
            -c1[:, None, None] * (flux + flux.transpose(0, 2, 1))
            + c2[:, None, None] * mass
            - c3[:, None, None] * flux2
        )
    return _compress(_edge_dofs(dofmap, edges), blocks, dofmap.n_dofs)


def assemble_interior_penalty(mesh, dofmap, basis, scheme, rule=None):
    """Symmetric interior-penalty coupling on interior edges."""
    if scheme.method is not Method.SIPDG:
        raise SchemeMismatch("interior penalty is only defined for the sipdg scheme")
    rule = rule if rule is not None else _default_edge_rule(basis.degree)
    edges = mesh.interior_edges
    nrm, h = edges.normal, edges.h_e
    blocks = 0.0
    for _, w, jump, mean in _edge_traces(mesh, basis, edges, rule):
        mean_flux = np.einsum("eib,eb->ei", mean, nrm)  # along n1
        cross = np.einsum("e,ei,ej->eij", w * h, mean_flux, jump)
        blocks -= cross + cross.transpose(0, 2, 1)
        blocks += (w / scheme.gamma) * np.einsum("ei,ej->eij", jump, jump)
    return _compress(_edge_dofs(dofmap, edges), blocks, dofmap.n_dofs)


def assemble_load(mesh, dofmap, basis, scheme, data, volume_rule=None, boundary_rule=None):
    """Load vector: volume source plus weighted boundary data."""
    volume_rule = volume_rule if volume_rule is not None else _default_volume_rule(basis.degree)
    boundary_rule = boundary_rule if boundary_rule is not None else _default_edge_rule(basis.degree)
    geom = _Geometry(mesh)
    rhs = np.zeros(dofmap.n_dofs)

    phi = basis.eval(volume_rule.points)  # (q, nb)
    x = geom.physical_points(volume_rule.points)  # (T, q, 2)
    fval = np.asarray(data.f(x[..., 0], x[..., 1]), dtype=float)
    fval = np.broadcast_to(fval, x.shape[:2])
    local = np.einsum("tq,q,qi,t->ti", fval, volume_rule.weights, phi, geom.det)
    np.add.at(rhs, dofmap.cell_dofs, local)

    edges = mesh.boundary_edges
    nrm, h = edges.normal, edges.h_e
    c1, c2, c3 = robin_weights(scheme, h)
    local = 0.0
    for xq, w, vals, grads in _edge_traces(mesh, basis, edges, boundary_rule):
        dn = np.einsum("eib,eb->ei", grads, nrm)
        u0 = np.broadcast_to(np.asarray(data.u0(xq[:, 0], xq[:, 1]), dtype=float), (len(edges),))
        gv = np.broadcast_to(np.asarray(data.g(xq[:, 0], xq[:, 1]), dtype=float), (len(edges),))
        wq = w * h
        coef_v = wq * (c2 * u0 + scheme.epsilon * c2 * gv)
        coef_dn = wq * (c1 * u0 + c3 * gv)
        local += coef_v[:, None] * vals - coef_dn[:, None] * dn
    np.add.at(rhs, _edge_dofs(dofmap, edges), local)
    return rhs


def assemble(mesh, scheme, data):
    """Build the full linear system for one mesh and scheme."""
    basis = reference_basis(scheme.degree)
    dofmap = build_dofmap(mesh, scheme.degree, continuous=scheme.continuous)
    matrix = assemble_volume(mesh, dofmap, basis)
    matrix = matrix + assemble_nitsche_boundary(mesh, dofmap, basis, scheme)
    if scheme.method is Method.SIPDG:
        matrix = matrix + assemble_interior_penalty(mesh, dofmap, basis, scheme)
    rhs = assemble_load(mesh, dofmap, basis, scheme, data)
    matrix.sum_duplicates()
    matrix.sort_indices()
    return SparseSystem(matrix=matrix.tocsr(), rhs=rhs, dofmap=dofmap)


def norm_matrix(mesh, scheme, dofmap=None, variant="energy"):
    """Gram matrix of the mesh-dependent energy norm.

    variant "energy": gradient term, boundary trace term weighted by
    1/(eps + h_E), and for the discontinuous scheme the interior jump
    term 1/h_E.  variant "augmented" adds the edge flux terms h_E
    (normal derivative on the boundary, mean gradient on interior
    edges) that make the norm control the discrete bilinear form.
    """
    if variant not in ("energy", "augmented"):
        raise InvalidParameter(f"unknown norm variant {variant!r}")
    basis = reference_basis(scheme.degree)
    if dofmap is None:
        dofmap = build_dofmap(mesh, scheme.degree, continuous=scheme.continuous)
    erule = edge_rule(8)
    total = assemble_volume(mesh, dofmap, basis, rule=triangle_rule(6))

    edges = mesh.boundary_edges
    nrm, h = edges.normal, edges.h_e
    wtrace = 1.0 / (scheme.epsilon + h)
    blocks = 0.0
    for _, w, vals, grads in _edge_traces(mesh, basis, edges, erule):
        blocks += np.einsum("e,ei,ej->eij", w * h * wtrace, vals, vals)
        if variant == "augmented":
            dn = np.einsum("eib,eb->ei", grads, nrm)
            blocks += np.einsum("e,ei,ej->eij", w * h * h, dn, dn)
    total = total + _compress(_edge_dofs(dofmap, edges), blocks, dofmap.n_dofs)

    if scheme.method is Method.SIPDG:
        edges = mesh.interior_edges
        h = edges.h_e
        blocks = 0.0
        for _, w, jump, mean in _edge_traces(mesh, basis, edges, erule):
            blocks += w * np.einsum("ei,ej->eij", jump, jump)  # (1/h) cancels the h in wq
            if variant == "augmented":
                blocks += np.einsum("e,eia,eja->eij", w * h * h, mean, mean)
        total = total + _compress(_edge_dofs(dofmap, edges), blocks, dofmap.n_dofs)
    total.sum_duplicates()
    total.sort_indices()
    return total.tocsr()


def consistency_residual(mesh, scheme, data, dofmap=None):
    """Max normalized defect of the exact solution in the discrete system.

    Evaluates a_h(u, phi_i) - l_h(phi_i) with the analytic solution and
    gradient in place of u, using the high-order quadrature rules, and
    scales each entry by the energy norm of phi_i.  On a mesh that fills
    the domain exactly this is quadrature-level small; on the disk it
    measures the boundary-skin perturbation.
    """
    if data.exact_u is None or data.exact_grad is None:
        raise MissingExactSolution("consistency check needs exact_u and exact_grad")
    basis = reference_basis(scheme.degree)
    if dofmap is None:
        dofmap = build_dofmap(mesh, scheme.degree, continuous=scheme.continuous)
    geom = _Geometry(mesh)
    nb = basis.n_nodes
    vrule = triangle_rule(6)
    erule = edge_rule(8)
    action = np.zeros(dofmap.n_dofs)

    # volume: (grad u, grad phi_i)
    gref = basis.eval_grad(vrule.points)
    x = geom.physical_points(vrule.points)
    gu = np.asarray(data.exact_grad(x[..., 0], x[..., 1]), dtype=float)  # (T, q, 2)
    local = np.zeros((mesh.n_triangles, nb))
    for q, w in enumerate(vrule.weights):
        g = np.einsum("ia,tab->tib", gref[q], geom.invB)
        local += (w * geom.det)[:, None] * np.einsum("tib,tb->ti", g, gu[:, q])
    np.add.at(action, dofmap.cell_dofs, local)

    # boundary edge terms of the bilinear form applied to u
    edges = mesh.boundary_edges
    nrm, h = edges.normal, edges.h_e
    c1, c2, c3 = robin_weights(scheme, h)
    local = 0.0
    for xq, w, vals, grads in _edge_traces(mesh, basis, edges, erule):
        dn = np.einsum("eib,eb->ei", grads, nrm)
        uval = np.broadcast_to(np.asarray(data.exact_u(xq[:, 0], xq[:, 1]), dtype=float), (len(edges),))
        un = np.einsum("eb,eb->e", np.asarray(data.exact_grad(xq[:, 0], xq[:, 1]), dtype=float), nrm)
        wq = w * h
        local += (wq * (-c1 * un + c2 * uval))[:, None] * vals
        local += (wq * (-c1 * uval - c3 * un))[:, None] * dn
    np.add.at(action, _edge_dofs(dofmap, edges), local)

    # interior penalty applied to the (continuous) exact solution: only
    # the mean-flux-against-jump term survives
    if scheme.method is Method.SIPDG:
        edges = mesh.interior_edges
        nrm, h = edges.normal, edges.h_e
        local = 0.0
        for xq, w, jump, _ in _edge_traces(mesh, basis, edges, erule):
            un = np.einsum("eb,eb->e", np.asarray(data.exact_grad(xq[:, 0], xq[:, 1]), dtype=float), nrm)
            local -= (w * h * un)[:, None] * jump
        np.add.at(action, _edge_dofs(dofmap, edges), local)

    rhs = assemble_load(mesh, dofmap, basis, scheme, data, volume_rule=vrule, boundary_rule=erule)
    gram = norm_matrix(mesh, scheme, dofmap=dofmap, variant="augmented")
    scale = np.sqrt(gram.diagonal())
    return float(np.max(np.abs(action - rhs) / scale))


def write_matrix(matrix, path):
    """Dump a sparse matrix as sorted 'row col value' triples."""
    csr = sp.csr_matrix(matrix)
    csr.sum_duplicates()
    csr.sort_indices()
    coo = csr.tocoo()
    with open(path, "w", newline="\n") as fh:
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i} {j} {v:.17g}\n")
