"""Assembly of the boundary-weighted stiffness systems.

Both schemes share the same boundary treatment: on each boundary edge the
Robin data enters through the weights

    c1 = gamma*h_E / (eps + gamma*h_E)
    c2 = 1 / (eps + gamma*h_E)
    c3 = eps*gamma*h_E / (eps + gamma*h_E)

which interpolate between a clean Robin term (gamma -> 0) and a
penalty-dominated Dirichlet-like term (eps -> 0).  The discontinuous
scheme adds the symmetric interior-penalty coupling on interior edges.

Every edge integral walks one trace kernel.  It gives each edge table a
fixed trace vector: t = (v, dn v) on boundary edges and
t = ([v], {dn v}, {dtau v}) on interior ones, with [v] = v1 - v2 the jump
along the normal n1 of element 1, {.} the two-element average and tau
the normal turned by 90 degrees.  Each edge form is one coefficient
matrix C per edge and unit rule weight, so C carries the h_E of the edge
measure:

    Robin        h_E [[c2, -c1], [-c1, -c3]]
    penalty      [[1/gamma, -h_E, 0], [-h_E, 0, 0], [0, 0, 0]]
    energy norm  diag(h_E/(eps + h_E), h_E^2) on boundary edges,
                 diag(1, h_E^2, h_E^2) on interior edges

Matrices are sum_q w_q t^T C t, loads sum_q w_q (C d).t for a data trace
d, and squared norms sum_q w_q diag(C) e^2; the boundary load is thus
l(v) = b_Robin((u0 + eps*g, 0), v).  The volume stiffness is the exact
contraction of a reference tensor with each element's geometry tensor.

Every form contributes (dofs, blocks) triplets.  The triplets of all the
forms of a system share one stable sort of the int64 key row*n + col, and
each run of equal keys is one stored entry: the sparsity pattern is
structural (an entry whose sum is exactly zero is kept).  A form assembled
on its own sums each run in sorted order with one segmented reduction.

What assemble needs besides the edge forms depends only on the mesh, degree
and method: basis, dof map, continuous-P1 prolongation, the CSR pattern, the
volume stiffness of the default rule summed onto it (0 where only edge
forms couple), and the CSR entry of every edge triplet.  It is built on
first use and memoized per (degree, method) in a table keyed weakly by the
Mesh, so it lives as long as the mesh: an eps sweep sorts once and sums the
volume once.  Each assemble then sums only its edge triplets, per entry in
sorted order, and adds the volume sum.  Entries are (volume sum) + (edge
sum), the addends of one reduction over all triplets grouped differently:
bitwise equal to an unmemoized run, and within 1e-15 of the largest entry
of the one-reduction sum.  Systems get copies of the index arrays and the
prolongation; the shared dof map is read-only.
"""

import enum
import math
import weakref
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParameter, MissingExactSolution, SchemeMismatch
from .felib import (
    DofMap,
    build_dofmap,
    continuous_embedding,
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
    """Assembled matrix and load vector, with the dof map they refer to.

    prolongation embeds continuous P1 on the same mesh into the space;
    the solver's two-level preconditioner uses it as its coarse space.
    None when there is no smaller coarse space (continuous P1).
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap
    prolongation: Optional[sp.csr_matrix] = None


def robin_weights(scheme, h_e):
    """Robin edge weights (c1, c2, c3); h_e may be an array."""
    denom = scheme.epsilon + scheme.gamma * h_e
    c1 = scheme.gamma * h_e / denom
    c2 = 1.0 / denom
    c3 = scheme.epsilon * scheme.gamma * h_e / denom
    return c1, c2, c3


def _robin_form(scheme, edges):
    """Robin coefficients on (v, dn v) per unit rule weight: (E, 2, 2)."""
    c1, c2, c3 = robin_weights(scheme, edges.h_e)
    coef = np.stack([c2, -c1, -c1, -c3], axis=-1).reshape(-1, 2, 2)
    return edges.h_e[:, None, None] * coef


def _penalty_form(scheme, edges):
    """Interior-penalty coefficients on ([v], {dn v}, {dtau v}): (E, 3, 3)."""
    coef = np.zeros((len(edges), 3, 3))
    coef[:, 0, 0] = 1.0 / scheme.gamma
    coef[:, 0, 1] = coef[:, 1, 0] = -edges.h_e
    return coef


def _norm_form(scheme, edges, variant):
    """The diagonal of the energy-norm coefficients on either trace vector:
    (E, m).  The "energy" variant drops the h_E^2 weights of the derivatives."""
    h = edges.h_e
    first = h / (scheme.epsilon + h) if _is_boundary(edges) else np.ones_like(h)
    flux = h * h if variant == "augmented" else np.zeros_like(h)
    return np.stack([first] + [flux] * edges.element_ids.shape[1], axis=-1)


def _default_volume_rule(degree):
    return triangle_rule(4 if degree == 1 else 6)


def _space(mesh, scheme, dofmap=None):
    """The reference basis of a scheme and, unless given, its dof map."""
    if dofmap is None:
        dofmap = build_dofmap(mesh, scheme.degree, continuous=scheme.continuous)
    return reference_basis(scheme.degree), dofmap


class _Geometry:
    """Per-element affine maps x = v0 + B xi of one mesh."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.v0, p1, p2 = mesh.vertices[mesh.triangles.T]
        e1, e2 = p1 - self.v0, p2 - self.v0
        self.B = np.stack([e1, e2], axis=-1)  # columns are edge vectors
        self.det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        adj = np.stack([e2[:, 1], -e2[:, 0], -e1[:, 1], e1[:, 0]], axis=-1)
        self.invB = adj.reshape(-1, 2, 2) / self.det[:, None, None]

    def physical_points(self, ref_points):
        """Map reference points (q, 2) into every element: (T, q, 2)."""
        bx = (self.B.reshape(-1, 2) @ ref_points.T).reshape(len(self.B), 2, -1)
        return self.v0[:, None, :] + bx.transpose(0, 2, 1)


def _is_boundary(edges):
    return edges.element_ids.shape[1] == 1


def _edge_tables(mesh, method):
    """The edge tables a method integrates over: boundary, then interior for SIPDG."""
    return [mesh.boundary_edges] + ([mesh.interior_edges] if method is Method.SIPDG else [])


def _edge_frame(edges):
    """Derivative directions of the trace vector, as columns: n on a
    boundary table (E, 2, 1), (n, tau) on an interior one (E, 2, 2)."""
    n = edges.normal
    if _is_boundary(edges):
        return n[:, :, None]
    return np.stack([n, np.column_stack([-n[:, 1], n[:, 0]])], axis=-1)


def _edge_traces(geom, basis, edges, rule):
    """Walk the points of an edge rule (by default the degree's) over
    every edge of one table.

    Yields (x, w, t) per point: the points x (E, 2), the scalar rule
    weight w and the trace vectors t (E, m, k*nb) of the basis functions
    of the k elements of each edge (v1 on element_ids[:, 0]).
    """
    rule = rule if rule is not None else edge_rule(4 if basis.degree == 1 else 8)
    pa, pb = geom.mesh.vertices[edges.vertex_ids.T]
    frame = _edge_frame(edges)
    k, nb = edges.element_ids.shape[1], basis.n_nodes
    sides = []  # per element: v0, B^-1, (B^-1 frame)^T / k, its sign in [v], its columns in t
    for side, elems in enumerate(edges.element_ids.T):
        invB = geom.invB[elems]
        dirs = (invB @ frame).transpose(0, 2, 1) / k
        cols = slice(side * nb, (side + 1) * nb)
        sides.append((geom.v0[elems], invB, dirs, -1.0 if side else 1.0, cols))
    for s, w in zip(rule.points, rule.weights):
        x = pa + s * (pb - pa)
        t = np.empty((len(edges), frame.shape[2] + 1, k * nb))
        for v0, invB, dirs, sign, cols in sides:
            ref = np.einsum("eab,eb->ea", invB, x - v0)
            t[:, 0, cols] = sign * basis.eval(ref)
            t[:, 1:, cols] = dirs @ basis.eval_grad(ref).transpose(0, 2, 1)
        yield x, w, t


def _at(func, x):
    """A scalar field at points x (E, 2), broadcast to (E,)."""
    return np.broadcast_to(np.asarray(func(x[:, 0], x[:, 1]), dtype=float), (len(x),))


def _exact_trace(data, edges):
    """The exact solution's trace vector on one edge table, as a function
    of the points x: its value on a boundary table or its zero jump on an
    interior one, then its derivatives along the edge frame.  (E, m)"""
    frame = _edge_frame(edges)

    def trace(x):
        grad = np.asarray(data.exact_grad(x[:, 0], x[:, 1]), dtype=float)
        first = _at(data.exact_u, x) if _is_boundary(edges) else np.zeros(len(x))
        return np.column_stack([first, (grad[:, None, :] @ frame)[:, 0]])

    return trace


def _robin_data(scheme, data):
    """The boundary data trace (u0 + eps*g, 0), as a function of the points x."""

    def trace(x):
        d = _at(data.u0, x) + scheme.epsilon * _at(data.g, x)
        return np.column_stack([d, np.zeros(len(x))])

    return trace


def _edge_dofs(dofmap, edges):
    """Global dofs of the k elements of every edge, stacked: (E, k*nb)."""
    width = edges.element_ids.shape[1] * dofmap.cell_dofs.shape[1]
    return dofmap.cell_dofs[edges.element_ids].reshape(len(edges), width)


def _edge_part(geom, dofmap, basis, edges, coef, rule=None):
    """The (dofs, blocks) part sum_q w_q t^T C t of one edge table."""
    blocks = 0.0
    for _, w, t in _edge_traces(geom, basis, edges, rule):
        blocks += w * (t.transpose(0, 2, 1) @ (coef @ t))
    return _edge_dofs(dofmap, edges), blocks


def _edge_vector(out, geom, dofmap, basis, edges, coef, trace, rule):
    """Add sum_q w_q (C d).t to out, with the data trace d = trace(x)."""
    local = 0.0
    for x, w, t in _edge_traces(geom, basis, edges, rule):
        cd = coef @ trace(x)[:, :, None]
        local += w * (t.transpose(0, 2, 1) @ cd)[:, :, 0]
    np.add.at(out, _edge_dofs(dofmap, edges), local)


def _edge_error_sq(geom, dofmap, basis, scheme, edges, data, solution, rule):
    """Per component, sum_q w_q diag(C) e^2 for the augmented energy norm,
    with e the exact trace minus the trace of the dof vector solution."""
    diag = _norm_form(scheme, edges, "augmented")
    ce = solution[_edge_dofs(dofmap, edges)]
    exact = _exact_trace(data, edges)
    total = 0.0
    for x, w, t in _edge_traces(geom, basis, edges, rule):
        e = exact(x) - (t @ ce[:, :, None])[:, :, 0]
        total = total + w * np.sum(diag * e * e, axis=0)
    return total


def _sort(dofs, n):
    """The stable sort of the keys row*n + col of (E, k, k) blocks on (E, k)
    dofs: (order, first, indices, indptr), first marking where each run of
    equal keys, one CSR entry, starts in sorted order."""
    ends = np.cumsum([0] + [d.shape[0] * d.shape[1] ** 2 for d in dofs])
    keys = np.empty(ends[-1], dtype=np.int64)
    for d, a, b in zip(dofs, ends, ends[1:]):
        np.add(d[:, :, None] * n, d[:, None, :], out=keys[a:b].reshape(len(d), d.shape[1], d.shape[1]))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.diff(keys, prepend=-1) != 0  # keys >= 0: entry 0 starts a run
    rows, cols = np.divmod(keys[first], n)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    itype = np.int32 if max(n, len(keys)) <= np.iinfo(np.int32).max else np.int64
    return order, first, cols.astype(itype), indptr.astype(itype)


def _compress(parts, n):
    """Deterministic COO -> CSR of the (dofs, blocks) parts: in-order segment sums."""
    order, first, indices, indptr = _sort([d for d, _ in parts], n)
    vals = np.concatenate([b.ravel() for _, b in parts])[order]
    return sp.csr_matrix((np.add.reduceat(vals, np.flatnonzero(first)), indices, indptr), shape=(n, n))


def _volume_part(geom, dofmap, basis, rule=None):
    """The (dofs, blocks) part of the stiffness (grad w, grad v).

    K[a, b, i, j] = sum_q w_q d_a phi_i d_b phi_j is built once from the
    rule; the blocks are one matrix product of K with the geometry tensors
    det * B^-1 B^-T of all elements.
    """
    rule = rule if rule is not None else _default_volume_rule(basis.degree)
    gref = basis.eval_grad(rule.points)  # (q, nb, 2)
    k_ref = np.einsum("q,qia,qjb->abij", rule.weights, gref, gref)
    g_geo = np.einsum("t,tac,tbc->tab", geom.det, geom.invB, geom.invB)
    nb = basis.n_nodes
    blocks = g_geo.reshape(-1, 4) @ k_ref.reshape(4, nb * nb)
    return dofmap.cell_dofs, blocks.reshape(-1, nb, nb)


def assemble_volume(mesh, dofmap, basis, rule=None):
    """Stiffness contribution (grad w, grad v) over all elements."""
    return _compress([_volume_part(_Geometry(mesh), dofmap, basis, rule)], dofmap.n_dofs)


def assemble_nitsche_boundary(mesh, dofmap, basis, scheme, rule=None):
    """Boundary form shared by both schemes: the Robin form."""
    coef = _robin_form(scheme, mesh.boundary_edges)
    part = _edge_part(_Geometry(mesh), dofmap, basis, mesh.boundary_edges, coef, rule)
    return _compress([part], dofmap.n_dofs)


def assemble_interior_penalty(mesh, dofmap, basis, scheme, rule=None):
    """Symmetric interior-penalty coupling on interior edges."""
    if scheme.method is not Method.SIPDG:
        raise SchemeMismatch("interior penalty is only defined for the sipdg scheme")
    coef = _penalty_form(scheme, mesh.interior_edges)
    part = _edge_part(_Geometry(mesh), dofmap, basis, mesh.interior_edges, coef, rule)
    return _compress([part], dofmap.n_dofs)


def _volume_load(geom, dofmap, basis, f, rule=None):
    """The vector (f, phi_i) over all elements."""
    rule = rule if rule is not None else _default_volume_rule(basis.degree)
    x = geom.physical_points(rule.points)  # (T, q, 2)
    fval = np.broadcast_to(np.asarray(f(x[..., 0], x[..., 1]), dtype=float), x.shape[:2])
    local = geom.det[:, None] * ((fval * rule.weights) @ basis.eval(rule.points))
    rhs = np.zeros(dofmap.n_dofs)
    np.add.at(rhs, dofmap.cell_dofs, local)
    return rhs


def _load(geom, dofmap, basis, scheme, data, volume_rule=None, boundary_rule=None):
    rhs = _volume_load(geom, dofmap, basis, data.f, volume_rule)
    edges = geom.mesh.boundary_edges
    coef = _robin_form(scheme, edges)
    _edge_vector(rhs, geom, dofmap, basis, edges, coef, _robin_data(scheme, data), boundary_rule)
    return rhs


def assemble_load(mesh, dofmap, basis, scheme, data, volume_rule=None, boundary_rule=None):
    """Load vector: volume source plus the Robin form of the boundary data."""
    return _load(_Geometry(mesh), dofmap, basis, scheme, data, volume_rule, boundary_rule)


_SPACES = weakref.WeakKeyDictionary()  # Mesh -> {(degree, method): _assembly_space result}


def _assembly_space(geom, scheme):
    """(basis, dofmap, prolongation, indices, indptr, vol_data, edge_slots) of
    a mesh and scheme, memoized: the CSR pattern of all its forms, the volume
    stiffness summed onto it, and the CSR entry of every edge triplet."""
    mesh = geom.mesh
    spaces = _SPACES.setdefault(mesh, {})
    key = (scheme.degree, scheme.method)
    if key not in spaces:
        basis, dofmap = _space(mesh, scheme)
        dofmap.cell_dofs.setflags(write=False)
        dofs = [dofmap.cell_dofs] + [_edge_dofs(dofmap, e) for e in _edge_tables(mesh, scheme.method)]
        p1 = scheme.continuous and scheme.degree == 1
        prolongation = None if p1 else continuous_embedding(dofmap, build_dofmap(mesh, 1, continuous=True))
        order, first, indices, indptr = _sort(dofs, dofmap.n_dofs)
        slots = np.empty(len(order), dtype=indices.dtype)
        slots[order] = np.cumsum(first, dtype=slots.dtype) - 1  # the CSR entry of every triplet
        volume = _volume_part(geom, dofmap, basis)[1].ravel()
        vol_data = np.bincount(slots[:len(volume)], volume, len(indices))
        spaces[key] = (basis, dofmap, prolongation, indices, indptr, vol_data, slots[len(volume):].copy())
    return spaces[key]


def assemble(mesh, scheme, data):
    """Build the full linear system for one mesh and scheme."""
    geom = _Geometry(mesh)
    basis, dofmap, prolongation, indices, indptr, vol_data, edge_slots = _assembly_space(geom, scheme)
    tables = zip(_edge_tables(mesh, scheme.method), (_robin_form, _penalty_form))
    blocks = [_edge_part(geom, dofmap, basis, edges, form(scheme, edges))[1].ravel() for edges, form in tables]
    # bincount adds each entry's edge triplets in their own order, which the stable sort keeps
    values = np.bincount(edge_slots, np.concatenate(blocks), len(vol_data)) + vol_data
    n = dofmap.n_dofs
    matrix = sp.csr_matrix((values, indices.copy(), indptr.copy()), shape=(n, n))
    rhs = _load(geom, dofmap, basis, scheme, data)
    prolongation = None if prolongation is None else prolongation.copy()
    return SparseSystem(matrix=matrix, rhs=rhs, dofmap=dofmap, prolongation=prolongation)


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
    basis, dofmap = _space(mesh, scheme, dofmap)
    geom = _Geometry(mesh)
    parts = [_volume_part(geom, dofmap, basis, triangle_rule(6))]
    for edges in _edge_tables(mesh, scheme.method):
        coef = _norm_form(scheme, edges, variant)[:, :, None] * np.eye(edges.element_ids.shape[1] + 1)
        parts.append(_edge_part(geom, dofmap, basis, edges, coef, edge_rule(8)))
    return _compress(parts, dofmap.n_dofs)


def consistency_residual(mesh, scheme, data, dofmap=None):
    """Max normalized defect of the exact solution in the discrete system.

    Evaluates a_h(u, phi_i) - l_h(phi_i) with the analytic solution and
    gradient in place of u, using the high-order quadrature rules, and
    scales each entry by the augmented energy norm of phi_i.  On a mesh
    that fills the domain exactly this is quadrature-level small; on the
    disk it measures the boundary-skin perturbation.
    """
    if data.exact_u is None or data.exact_grad is None:
        raise MissingExactSolution("consistency check needs exact_u and exact_grad")
    basis, dofmap = _space(mesh, scheme, dofmap)
    geom = _Geometry(mesh)
    vrule, erule = triangle_rule(6), edge_rule(8)

    # volume: (grad u, grad phi_i) - (f, phi_i)
    x = geom.physical_points(vrule.points)
    gu = np.asarray(data.exact_grad(x[..., 0], x[..., 1]), dtype=float)  # (T, q, 2)
    pulled = vrule.weights[:, None] * (gu @ geom.invB.transpose(0, 2, 1))  # B^-1 grad u
    local = geom.det[:, None] * np.tensordot(pulled, basis.eval_grad(vrule.points), ([1, 2], [0, 2]))
    defect = -_volume_load(geom, dofmap, basis, data.f, vrule)
    np.add.at(defect, dofmap.cell_dofs, local)

    # edges: each edge form applied to the exact trace minus the data trace
    edges = mesh.boundary_edges
    exact, given = _exact_trace(data, edges), _robin_data(scheme, data)
    coef = _robin_form(scheme, edges)
    _edge_vector(defect, geom, dofmap, basis, edges, coef, lambda x: exact(x) - given(x), erule)
    if scheme.method is Method.SIPDG:
        edges = mesh.interior_edges
        coef = _penalty_form(scheme, edges)
        _edge_vector(defect, geom, dofmap, basis, edges, coef, _exact_trace(data, edges), erule)

    # the squared norms of phi_i, the augmented Gram diagonal; on edges sum_q w_q sum_m C_mm t_m^2
    dofs, blocks = _volume_part(geom, dofmap, basis, vrule)
    gram_diag = np.zeros(dofmap.n_dofs)
    np.add.at(gram_diag, dofs, np.diagonal(blocks, axis1=1, axis2=2))
    for edges in _edge_tables(mesh, scheme.method):
        diag, local = _norm_form(scheme, edges, "augmented")[:, None, :], 0.0
        for _, w, t in _edge_traces(geom, basis, edges, erule):
            local += w * (diag @ (t * t))[:, 0]
        np.add.at(gram_diag, _edge_dofs(dofmap, edges), local)
    return float(np.max(np.abs(defect) / np.sqrt(gram_diag)))


def write_matrix(matrix, path):
    """Dump a sparse matrix as sorted 'row col value' triples."""
    csr = sp.csr_matrix(matrix, copy=True)  # sum_duplicates sorts in place
    csr.sum_duplicates()
    coo = csr.tocoo()
    with open(path, "w", newline="\n") as fh:
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i} {j} {v:.17g}\n")
