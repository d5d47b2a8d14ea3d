"""Assembly of the boundary-weighted stiffness systems.

Both schemes share the same boundary treatment: on each boundary edge the
Robin data enters through the weights

    c1 = gamma*h_E / (eps + gamma*h_E)
    c2 = 1 / (eps + gamma*h_E)
    c3 = eps*gamma*h_E / (eps + gamma*h_E)

which interpolate between a clean Robin term (gamma -> 0) and a
penalty-dominated Dirichlet-like term (eps -> 0).  The discontinuous
scheme adds the symmetric interior-penalty coupling on interior edges.

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


def _compress(rows, cols, vals, n):
    """Deterministic COO -> CSR: stable lexsort, in-order segment sums."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=float)
    if len(vals) == 0:
        return sp.csr_matrix((n, n))
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    boundary = np.flatnonzero((rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])) + 1
    starts = np.concatenate([[0], boundary])
    summed = np.add.reduceat(vals, starts)
    return sp.csr_matrix((summed, (rows[starts], cols[starts])), shape=(n, n))


def _block_triplets(dofs, blocks):
    """Flatten (E, k, k) blocks indexed by (E, k) dof rows."""
    k = dofs.shape[1]
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    return rows, cols, blocks.ravel()


def assemble_volume(mesh, dofmap, basis, rule=None):
    """Stiffness contribution (grad w, grad v) over all elements."""
    rule = rule if rule is not None else _default_volume_rule(basis.degree)
    geom = _Geometry(mesh)
    nb = basis.n_nodes
    gref = basis.eval_grad(rule.points)  # (q, nb, 2)
    n_tri = mesh.n_triangles
    blocks = np.zeros((n_tri, nb, nb))
    for q, w in enumerate(rule.weights):
        g = np.einsum("ia,tab->tib", gref[q], geom.invB)  # (T, nb, 2)
        blocks += (w * geom.det)[:, None, None] * (g @ g.transpose(0, 2, 1))
    rows, cols, vals = _block_triplets(dofmap.cell_dofs, blocks)
    return _compress(rows, cols, vals, dofmap.n_dofs)


def assemble_nitsche_boundary(mesh, dofmap, basis, scheme, rule=None):
    """Boundary form shared by both schemes (the c1/c2/c3 edge terms)."""
    rule = rule if rule is not None else _default_edge_rule(basis.degree)
    edges = mesh.boundary_edges
    if not edges:
        return sp.csr_matrix((dofmap.n_dofs, dofmap.n_dofs))
    geom = _Geometry(mesh)
    nb = basis.n_nodes
    pa, pb = mesh.vertices[edges.vertex_ids.T]
    nrm, h, owner = edges.normal, edges.h_e, edges.element_ids[:, 0]
    c1, c2, c3 = robin_weights(scheme, h)
    blocks = np.zeros((len(edges), nb, nb))
    for t, w in zip(rule.points, rule.weights):
        x = pa + t * (pb - pa)
        vals, grads = geom.traces(basis, owner, x)
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
    rows, cols, vals = _block_triplets(dofmap.cell_dofs[owner], blocks)
    return _compress(rows, cols, vals, dofmap.n_dofs)


def assemble_interior_penalty(mesh, dofmap, basis, scheme, rule=None):
    """Symmetric interior-penalty coupling on interior edges."""
    if scheme.method is not Method.SIPDG:
        raise SchemeMismatch("interior penalty is only defined for the sipdg scheme")
    rule = rule if rule is not None else _default_edge_rule(basis.degree)
    edges = mesh.interior_edges
    if not edges:
        return sp.csr_matrix((dofmap.n_dofs, dofmap.n_dofs))
    geom = _Geometry(mesh)
    nb = basis.n_nodes
    pa, pb = mesh.vertices[edges.vertex_ids.T]
    nrm, h, elems = edges.normal, edges.h_e, edges.element_ids
    sign = np.concatenate([np.ones(nb), -np.ones(nb)])
    blocks = np.zeros((len(edges), 2 * nb, 2 * nb))
    for t, w in zip(rule.points, rule.weights):
        x = pa + t * (pb - pa)
        v1, g1 = geom.traces(basis, elems[:, 0], x)
        v2, g2 = geom.traces(basis, elems[:, 1], x)
        jump = np.concatenate([v1, v2], axis=1) * sign  # coefficient along n1
        mean_flux = 0.5 * np.concatenate(
            [np.einsum("eib,eb->ei", g1, nrm), np.einsum("eib,eb->ei", g2, nrm)],
            axis=1,
        )
        cross = np.einsum("e,ei,ej->eij", w * h, mean_flux, jump)
        blocks -= cross + cross.transpose(0, 2, 1)
        blocks += (w / scheme.gamma) * np.einsum("ei,ej->eij", jump, jump)
    dofs = np.concatenate([dofmap.cell_dofs[elems[:, 0]], dofmap.cell_dofs[elems[:, 1]]], axis=1)
    rows, cols, vals = _block_triplets(dofs, blocks)
    return _compress(rows, cols, vals, dofmap.n_dofs)


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
    if edges:
        pa, pb = mesh.vertices[edges.vertex_ids.T]
        nrm, h, owner = edges.normal, edges.h_e, edges.element_ids[:, 0]
        c1, c2, c3 = robin_weights(scheme, h)
        local = np.zeros((len(edges), basis.n_nodes))
        for t, w in zip(boundary_rule.points, boundary_rule.weights):
            xq = pa + t * (pb - pa)
            vals, grads = geom.traces(basis, owner, xq)
            dn = np.einsum("eib,eb->ei", grads, nrm)
            u0 = np.broadcast_to(np.asarray(data.u0(xq[:, 0], xq[:, 1]), dtype=float), (len(edges),))
            gv = np.broadcast_to(np.asarray(data.g(xq[:, 0], xq[:, 1]), dtype=float), (len(edges),))
            wq = w * h
            coef_v = wq * (c2 * u0 + scheme.epsilon * c2 * gv)
            coef_dn = wq * (c1 * u0 + c3 * gv)
            local += coef_v[:, None] * vals - coef_dn[:, None] * dn
        np.add.at(rhs, dofmap.cell_dofs[owner], local)
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
    geom = _Geometry(mesh)
    nb = basis.n_nodes
    vrule = triangle_rule(6)
    erule = edge_rule(8)
    total = assemble_volume(mesh, dofmap, basis, rule=vrule)

    edges = mesh.boundary_edges
    pa, pb = mesh.vertices[edges.vertex_ids.T]
    nrm, h, owner = edges.normal, edges.h_e, edges.element_ids[:, 0]
    wtrace = 1.0 / (scheme.epsilon + h)
    blocks = np.zeros((len(edges), nb, nb))
    for t, w in zip(erule.points, erule.weights):
        x = pa + t * (pb - pa)
        vals, grads = geom.traces(basis, owner, x)
        blocks += np.einsum("e,ei,ej->eij", w * h * wtrace, vals, vals)
        if variant == "augmented":
            dn = np.einsum("eib,eb->ei", grads, nrm)
            blocks += np.einsum("e,ei,ej->eij", w * h * h, dn, dn)
    rows, cols, vals = _block_triplets(dofmap.cell_dofs[owner], blocks)
    total = total + _compress(rows, cols, vals, dofmap.n_dofs)

    if scheme.method is Method.SIPDG and mesh.interior_edges:
        edges = mesh.interior_edges
        pa, pb = mesh.vertices[edges.vertex_ids.T]
        nrm, h, elems = edges.normal, edges.h_e, edges.element_ids
        sign = np.concatenate([np.ones(nb), -np.ones(nb)])
        blocks = np.zeros((len(edges), 2 * nb, 2 * nb))
        for t, w in zip(erule.points, erule.weights):
            x = pa + t * (pb - pa)
            v1, g1 = geom.traces(basis, elems[:, 0], x)
            v2, g2 = geom.traces(basis, elems[:, 1], x)
            jump = np.concatenate([v1, v2], axis=1) * sign
            blocks += w * np.einsum("ei,ej->eij", jump, jump)  # (1/h) cancels the h in wq
            if variant == "augmented":
                mean = 0.5 * np.concatenate([g1, g2], axis=1)  # (E, 2nb, 2)
                blocks += np.einsum("e,eia,eja->eij", w * h * h, mean, mean)
        dofs = np.concatenate(
            [dofmap.cell_dofs[elems[:, 0]], dofmap.cell_dofs[elems[:, 1]]], axis=1
        )
        rows, cols, vals = _block_triplets(dofs, blocks)
        total = total + _compress(rows, cols, vals, dofmap.n_dofs)
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
    pa, pb = mesh.vertices[edges.vertex_ids.T]
    nrm, h, owner = edges.normal, edges.h_e, edges.element_ids[:, 0]
    c1, c2, c3 = robin_weights(scheme, h)
    local = np.zeros((len(edges), nb))
    for t, w in zip(erule.points, erule.weights):
        xq = pa + t * (pb - pa)
        vals, grads = geom.traces(basis, owner, xq)
        dn = np.einsum("eib,eb->ei", grads, nrm)
        uval = np.broadcast_to(np.asarray(data.exact_u(xq[:, 0], xq[:, 1]), dtype=float), (len(edges),))
        un = np.einsum("eb,eb->e", np.asarray(data.exact_grad(xq[:, 0], xq[:, 1]), dtype=float), nrm)
        wq = w * h
        local += (wq * (-c1 * un + c2 * uval))[:, None] * vals
        local += (wq * (-c1 * uval - c3 * un))[:, None] * dn
    np.add.at(action, dofmap.cell_dofs[owner], local)

    # interior penalty applied to the (continuous) exact solution: only
    # the mean-flux-against-jump term survives
    if scheme.method is Method.SIPDG and mesh.interior_edges:
        edges = mesh.interior_edges
        pa, pb = mesh.vertices[edges.vertex_ids.T]
        nrm, h, elems = edges.normal, edges.h_e, edges.element_ids
        sign = np.concatenate([np.ones(nb), -np.ones(nb)])
        local = np.zeros((len(edges), 2 * nb))
        for t, w in zip(erule.points, erule.weights):
            xq = pa + t * (pb - pa)
            v1, _ = geom.traces(basis, elems[:, 0], xq)
            v2, _ = geom.traces(basis, elems[:, 1], xq)
            jump = np.concatenate([v1, v2], axis=1) * sign
            un = np.einsum("eb,eb->e", np.asarray(data.exact_grad(xq[:, 0], xq[:, 1]), dtype=float), nrm)
            local -= (w * h * un)[:, None] * jump
        dofs = np.concatenate(
            [dofmap.cell_dofs[elems[:, 0]], dofmap.cell_dofs[elems[:, 1]]], axis=1
        )
        np.add.at(action, dofs, local)

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
