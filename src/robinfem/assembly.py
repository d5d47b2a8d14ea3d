"""Assembly of the boundary-weighted stiffness systems.

Both schemes share the same boundary treatment: on each boundary edge the
Robin data enters through the weights

    c1 = gamma*h_E / (eps + gamma*h_E)
    c2 = 1 / (eps + gamma*h_E)
    c3 = eps*gamma*h_E / (eps + gamma*h_E)

which interpolate between a clean Robin term (gamma -> 0) and a
penalty-dominated Dirichlet-like term (eps -> 0).  The discontinuous
scheme adds the symmetric interior-penalty coupling on interior edges.

Every edge integral uses one trace vector per edge table: t = (v, dn v)
on boundary edges and t = ([v], {dn v}, {dtau v}) on interior ones, with
[v] = v1 - v2 the jump along the normal n1 of element 1, {.} the
two-element average and tau the normal turned by 90 degrees.  Each edge
form is one coefficient matrix C per edge and unit rule weight, so C
carries the h_E of the edge measure:

    Robin        h_E [[c2, -c1], [-c1, -c3]]
    penalty      [[1/gamma, -h_E, 0], [-h_E, 0, 0], [0, 0, 0]]
    energy norm  diag(h_E/(eps + h_E), h_E^2) on boundary edges,
                 diag(1, h_E^2, h_E^2) on interior edges

On an affine element, rule point s of an edge maps to a reference point
fixed by the ordered pair (a, b) of local vertices the edge runs between,
one of 6 classes: t = A T, with A = [[+-1, 0, 0], [0, (B^-1 frame)^T / k]]
per edge and element and T the block diagonal of the fixed tables R_c(s)
(3, nb) of basis values and reference gradients.  A matrix block
sum_q w_q t^T C t is then W = A^T C A contracted with K = sum_q w_q T (x) T,
one GEMM per class tuple: 6 on boundary and 36 on interior edges.  Loads
sum_q w_q (C d).t and squared norms sum_q w_q diag(C) e^2 evaluate the
data trace d and the error e at all physical points of a table at once;
the boundary load is thus l(v) = b_Robin((u0 + eps*g, 0), v).  The
volume stiffness is the same contraction on each element, whose map
x = v0 + B xi, det B and B^-1 live on the Mesh.

Every form contributes (elements, blocks) parts and every load
(elements, values) parts, a row per element or edge over the dofs of its
k elements.  A block is a dof (nb = 1) in a continuous space and element
t's dofs t*nb .. t*nb + nb - 1 in a discontinuous one.  All the forms on
a space share one block pattern, from one sort of their block pairs.  A
matrix is one bincount of its parts onto the BSR data of that pattern
(each entry's terms in input order, exact-zero sums kept), which scipy
converts to CSR; a vector is one bincount onto its dofs, with no sort.

What no form, rule or degree changes on an edge table (the class tuple
of every edge, its edges grouped per class tuple by one stable sort, and
the trace coefficients A) is found once and memoized in a table keyed
weakly by the EdgeTable, so it lives as long as the mesh.  The space
of a mesh, degree and method is built on first use and memoized in a
table keyed weakly by the Mesh, so it lives as long as the mesh: basis,
dof map, continuous-P1 prolongation, the volume stiffness as BSR data on
the block pattern of all its forms (0 where only edge forms couple), and
the data entries of its edge triplets.  assemble and norm_matrix add one
bincount of their edge forms to that volume, so the Gram matrix of the
energy norm sits on the system's pattern; both triangle rules integrate the
stiffness exactly.  An eps sweep sorts once and sums the volume once, and
its entries are bitwise those of an unmemoized run.  Matrices get their
own index arrays from the conversion, systems a copy of the prolongation;
the shared dof map is read-only.
"""

import enum
import functools
import math
import numbers
import weakref
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from ._atomic import write_lines
from .errors import InvalidParameter, SchemeMismatch, values_at
from .felib import (
    DofMap,
    _check_dofs,
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
    "write_matrix",
]


class Method(enum.Enum):
    NITSCHE = "nitsche"
    SIPDG = "sipdg"


# 1/x overflows for every positive x up to and including this one
_SMALLEST_DENOMINATOR = 1.0 / np.finfo(float).max


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
        reference_basis(self.degree)  # raises InvalidParameter unless the degree is 1 or 2
        for name in ("epsilon", "gamma"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):  # a bool is a numbers.Real
                raise InvalidParameter(f"{name} must be a real number, got {value!r}")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise InvalidParameter(f"epsilon must be positive, got {self.epsilon}")
        if not (self.gamma >= 0.0 and math.isfinite(self.gamma)):
            raise InvalidParameter(f"gamma must be nonnegative, got {self.gamma}")
        if self.method is Method.SIPDG and self.gamma <= _SMALLEST_DENOMINATOR:
            raise InvalidParameter(f"interior penalty needs gamma > 0 with a finite 1/gamma, got gamma={self.gamma}")
        if self.gamma == 0.0 and not math.isfinite(1.0 / self.epsilon):
            raise InvalidParameter(f"the Robin weight 1/epsilon overflows at epsilon={self.epsilon} and gamma=0")

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
    the solver's multilevel preconditioner uses it as its first coarse
    space.  None when there is no smaller such space (continuous P1).
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap
    prolongation: Optional[sp.csr_matrix] = None


def robin_weights(scheme, h_e):
    """Robin edge weights (c1, c2, c3); h_e may be an array.

    Raises InvalidParameter where 1/(eps + gamma*h_E) would overflow.
    """
    denom = scheme.epsilon + scheme.gamma * h_e
    if np.any(denom <= _SMALLEST_DENOMINATOR):
        h_min = float(np.min(h_e))
        raise InvalidParameter(
            f"the Robin weight 1/(epsilon + gamma*h_E) overflows at epsilon={scheme.epsilon}, "
            f"gamma={scheme.gamma} and h_E={h_min:.3g}"
        )
    c1 = scheme.gamma * h_e / denom
    c2 = 1.0 / denom
    c3 = scheme.epsilon * c1  # eps*gamma*h_e itself may overflow
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


# the ordered pairs (a, b) of local vertices an edge can run between, from
# its lower to its higher global vertex: the 6 edge classes of an element
_CLASSES = [(a, b) for a in range(3) for b in range(3) if a != b]


@functools.cache
def _edge_tensors(degree, order, k):
    """Read-only reference tensors of edge rule order on edges of k elements,
    per class tuple c_1 .. c_k (index c_1 6^(k-1) + .. + c_k): T (6^k, q*3k,
    k*nb), the block diagonal of the tables R_c(s_q) at every rule point,
    and K (6^k, 9k^2, (k*nb)^2) = sum_q w_q T_q (x) T_q."""
    basis, rule = reference_basis(degree), edge_rule(order)
    nq, nb, n = len(rule.points), basis.n_nodes, len(_CLASSES) ** k
    a, b = basis.nodes[np.transpose(_CLASSES)][:, :, None]  # the reference vertices a and b of each class
    ref = (a + rule.points[:, None] * (b - a)).reshape(-1, 2)
    tables = np.concatenate([basis.eval(ref)[:, None], basis.eval_grad(ref).transpose(0, 2, 1)], axis=1)
    diag = np.zeros((n, nq, k, 3, k, nb))
    for side, classes in enumerate(np.indices((len(_CLASSES),) * k).reshape(k, n)):
        diag[:, :, side, :, side] = tables.reshape(len(_CLASSES), nq, 3, nb)[classes]
    diag = diag.reshape(n, nq, 3 * k, k * nb)
    tensors = np.einsum("q,cqai,cqbj->cabij", rule.weights, diag, diag).reshape(n, 9 * k * k, -1)
    for array in (diag, tensors):
        array.setflags(write=False)
    return diag.reshape(n, nq * 3 * k, k * nb), tensors


_EDGE_FACTS = weakref.WeakKeyDictionary()  # EdgeTable -> _edge_facts result


def _edge_facts(mesh, edges):
    """What no form, rule or degree changes on an edge table of mesh, memoized
    in a table keyed weakly by the EdgeTable: the class tuple (E,) of every
    edge, its edges grouped per class tuple ((c, ascending edge ids), by one
    stable sort) and the trace coefficients A (E, m, 3k) (side sigma, v1 on
    element_ids[:, 0], in columns 3 sigma ..).  All read-only."""
    if edges not in _EDGE_FACTS:
        frame, k = _edge_frame(edges), edges.element_ids.shape[1]
        lift, classes = np.zeros((len(edges), frame.shape[2] + 1, 3 * k)), 0
        for side, elems in enumerate(edges.element_ids.T):
            a, b = (np.argmax(mesh.triangles[elems] == v[:, None], axis=1) for v in edges.vertex_ids.T)
            classes = len(_CLASSES) * classes + 2 * a + b - (b > a)  # the index of (a, b) in _CLASSES
            lift[:, 0, 3 * side] = -1.0 if side else 1.0
            lift[:, 1:, 3 * side + 1:3 * side + 3] = (mesh.invB[elems] @ frame).transpose(0, 2, 1) / k
        order = np.argsort(classes, kind="stable")
        cuts = np.flatnonzero(np.diff(classes[order])) + 1
        groups = [(int(classes[ids[0]]), ids) for ids in np.split(order, cuts) if len(ids)]
        for array in [classes, lift] + [ids for _, ids in groups]:
            array.setflags(write=False)
        _EDGE_FACTS[edges] = classes, tuple(groups), lift
    return _EDGE_FACTS[edges]


def _edge_kernel(mesh, basis, edges, order=None):
    """One edge table under edge rule order (by default the degree's): the
    rule points x (q, E, 2) and weights, the trace coefficients A and the
    class-tuple groups of _edge_facts, and the (T, K) of _edge_tensors."""
    order = order or (4 if basis.degree == 1 else 8)
    rule, k = edge_rule(order), edges.element_ids.shape[1]
    _, groups, lift = _edge_facts(mesh, edges)
    pa, pb = mesh.vertices[edges.vertex_ids.T]
    points = pa + rule.points[:, None, None] * (pb - pa)
    return points, rule.weights, lift, groups, _edge_tensors(basis.degree, order, k)


def _per_class(groups, rows, tensors):
    """rows[e] @ tensors[c] for every edge e of class tuple c: one GEMM per group."""
    out = np.empty((len(rows), tensors.shape[2]))
    for c, ids in groups:
        out[ids] = rows[ids] @ tensors[c]
    return out


def _exact_trace(data, edges, x):
    """The exact solution's trace vector on one edge table at the points x
    (..., E, 2): its value on a boundary table or its zero jump on an
    interior one, then its derivatives along the edge frame.  (..., E, m)"""
    grad = values_at(data.exact_grad, x, (2,))
    first = values_at(data.exact_u, x) if _is_boundary(edges) else np.zeros(x.shape[:-1])
    return np.concatenate([first[..., None], (grad[..., None, :] @ _edge_frame(edges))[..., 0, :]], axis=-1)


def _robin_data(scheme, data, x):
    """The boundary data trace (u0 + eps*g, 0) at the points x (..., 2).  (..., 2)"""
    d = values_at(data.u0, x) + scheme.epsilon * values_at(data.g, x)
    return np.stack([d, np.zeros_like(d)], axis=-1)


def _edge_dofs(dofmap, edges):
    """Global dofs of the k elements of every edge, stacked: (E, k*nb)."""
    width = edges.element_ids.shape[1] * dofmap.cell_dofs.shape[1]
    return dofmap.cell_dofs[edges.element_ids].reshape(len(edges), width)


def _edge_part(mesh, basis, edges, coef, order=None):
    """The (elements, blocks) part sum_q w_q t^T C t of one edge table: per
    class tuple, the W = A^T C A of its edges times its K."""
    _, _, lift, groups, (_, tensors) = _edge_kernel(mesh, basis, edges, order)
    w = (lift.transpose(0, 2, 1) @ coef @ lift).reshape(len(edges), tensors.shape[1])
    width = edges.element_ids.shape[1] * basis.n_nodes
    return edges.element_ids, _per_class(groups, w, tensors).reshape(-1, width, width)


def _edge_vector(kernel, coef, trace):
    """The values sum_q w_q (C d).t (E, k*nb) of one edge kernel, with d =
    trace(x) on all its rule points x (q, E, 2) at once: per class tuple,
    w_q A^T C d times its T."""
    points, weights, lift, groups, (tables, _) = kernel
    z = weights[:, None, None] * (lift.transpose(0, 2, 1) @ coef @ trace(points)[..., None])[..., 0]  # (q, E, 3k)
    return _per_class(groups, z.transpose(1, 0, 2).reshape(len(lift), tables.shape[1]), tables)


def _edge_error_sq(mesh, dofmap, scheme, edges, data, solution):
    """Per component, sum_q w_q diag(C) e^2 for the augmented energy norm,
    with e the exact trace minus the trace A T c of the dof vector solution."""
    points, weights, lift, groups, (tables, _) = _edge_kernel(mesh, reference_basis(scheme.degree), edges, 8)
    ref = _per_class(groups, solution[_edge_dofs(dofmap, edges)], tables.transpose(0, 2, 1))
    uh = (lift[:, None] @ ref.reshape(len(edges), len(weights), lift.shape[2], 1))[..., 0]  # (E, q, m)
    e = _exact_trace(data, edges, points) - uh.transpose(1, 0, 2)  # (q, E, m)
    # summed over E, then over q in rule order
    return np.sum(weights[:, None] * np.sum(_norm_form(scheme, edges, "augmented") * e * e, axis=1), axis=0).tolist()


def _sort(ids, n, nb=1):
    """The BSR pattern (slots, indices, indptr) of nb x nb blocks on the (E, k)
    block ids below n of parts, from one stable sort (any sort gives the same;
    stable is the fastest here) of the keys row*n + col.  slots is the data
    entry of every triplet: (e, s*nb + i, t*nb + j) is nb^2 bslot[e, s, t] + nb i + j."""
    ends = np.cumsum([0] + [d.shape[0] * d.shape[1] ** 2 for d in ids])
    keys = np.empty(ends[-1], dtype=np.int64)
    for d, a, b in zip(ids, ends, ends[1:]):
        np.add(d[:, :, None] * n, d[:, None, :], out=keys[a:b].reshape(len(d), d.shape[1], d.shape[1]))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.diff(keys, prepend=-1) != 0  # keys >= 0: entry 0 starts a run
    rows, cols = np.divmod(keys[first], n)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    itype = np.int32 if nb * max(n, nb * len(keys)) <= np.iinfo(np.int32).max else np.int64
    bslots = np.empty(len(order), dtype=itype)
    bslots[order] = nb * nb * (np.cumsum(first, dtype=itype) - 1)
    local = np.arange(nb * nb, dtype=itype).reshape(nb, 1, nb)  # nb i + j
    slots = [bslots[a:b].reshape(len(d), d.shape[1], 1, d.shape[1], 1) + local for d, a, b in zip(ids, ends, ends[1:])]
    return np.concatenate([s.ravel() for s in slots]), cols.astype(itype), indptr.astype(itype)


def _pattern(elements, dofmap):
    """_sort's pattern of parts on (E, k) elements.  A block is a dof (nb = 1)
    in a continuous space and element t's dofs t*nb .. t*nb + nb - 1 in a
    discontinuous one (_check_space refuses other numberings)."""
    nb = 1 if dofmap.continuous else dofmap.cell_dofs.shape[1]
    blocks = dofmap.cell_dofs[:, ::nb] // nb  # every element's blocks: its dofs, or itself
    return _sort([blocks[e].reshape(len(e), e.shape[1] * blocks.shape[1]) for e in elements], dofmap.n_dofs // nb, nb)


def _bsr(slots, weights, bind, bptr, n):
    """The n x n BSR matrix on the block pattern (bind, bptr) whose data is one
    bincount of weights over slots: each entry's terms in input order."""
    nb = n // (len(bptr) - 1)
    values = np.bincount(slots, weights, nb * nb * len(bind))
    return sp.bsr_matrix((values.reshape(-1, nb, nb), bind, bptr), shape=(n, n))


def _csr(matrix):
    """A BSR matrix in CSR, with index arrays of its own.  At nb = 1 its data is
    the CSR data, which the CSR constructor takes in 0.3 ms where scipy's
    conversion takes 2.4 ms (566,785 entries, one x86_64 core)."""
    if matrix.blocksize == (1, 1):
        return sp.csr_matrix((matrix.data.ravel(), matrix.indices.copy(), matrix.indptr.copy()), shape=matrix.shape)
    return matrix.tocsr()


def _compress(parts, dofmap):
    """Deterministic COO -> CSR of the (elements, blocks) parts, through BSR."""
    slots, bind, bptr = _pattern([e for e, _ in parts], dofmap)
    return _csr(_bsr(slots, np.concatenate([b.ravel() for _, b in parts]), bind, bptr, dofmap.n_dofs))


def _vector(parts, dofmap):
    """The sum of the (elements, values) parts over the dofs of dofmap: one
    bincount adds each dof's values in part order."""
    dofs = np.concatenate([dofmap.cell_dofs[e].ravel() for e, _ in parts])
    return np.bincount(dofs, np.concatenate([v.ravel() for _, v in parts]), dofmap.n_dofs)


def _cells(mesh):
    """Every element as a part of one element: (T, 1)."""
    return np.arange(mesh.n_triangles)[:, None]


def _volume_part(mesh, basis):
    """The (elements, blocks) part of the stiffness (grad w, grad v).

    K[a, b, i, j] = sum_q w_q d_a phi_i d_b phi_j is built once from the
    rule; the blocks are one matrix product of K with the geometry tensors
    det * B^-1 B^-T of all elements.
    """
    rule = _default_volume_rule(basis.degree)
    gref = basis.eval_grad(rule.points)  # (q, nb, 2)
    k_ref = np.einsum("q,qia,qjb->abij", rule.weights, gref, gref)
    g_geo = np.einsum("t,tac,tbc->tab", mesh.det, mesh.invB, mesh.invB)
    nb = basis.n_nodes
    blocks = g_geo.reshape(-1, 4) @ k_ref.reshape(4, nb * nb)
    return _cells(mesh), blocks.reshape(-1, nb, nb)


def _check_space(mesh, dofmap, degree, solution=None):
    """Raise InvalidParameter unless dofmap numbers degree-`degree` dofs
    within 0 .. n_dofs - 1 on every triangle of mesh, a discontinuous one in
    element blocks (as _pattern needs), and solution, if given, has one
    entry per dof."""
    if dofmap.degree != degree:
        raise InvalidParameter(f"the dof map has degree {dofmap.degree}, the basis or scheme degree {degree}")
    _check_dofs(mesh.n_triangles, dofmap)
    if not dofmap.continuous:
        blocked = np.arange(dofmap.cell_dofs.size).reshape(dofmap.cell_dofs.shape)
        if dofmap.n_dofs != blocked.size or not np.array_equal(dofmap.cell_dofs, blocked):
            raise InvalidParameter("the dof map is discontinuous but does not number element t's nb dofs t*nb .. t*nb + nb - 1")
    if solution is not None and np.shape(solution) != (dofmap.n_dofs,):
        raise InvalidParameter(f"the solution has shape {np.shape(solution)}, the dof map {dofmap.n_dofs} dofs")


def assemble_volume(mesh, dofmap, basis):
    """Stiffness contribution (grad w, grad v) over all elements."""
    _check_space(mesh, dofmap, basis.degree)
    return _compress([_volume_part(mesh, basis)], dofmap)


def assemble_nitsche_boundary(mesh, dofmap, basis, scheme):
    """Boundary form shared by both schemes: the Robin form."""
    _check_space(mesh, dofmap, basis.degree)
    coef = _robin_form(scheme, mesh.boundary_edges)
    return _compress([_edge_part(mesh, basis, mesh.boundary_edges, coef)], dofmap)


def assemble_interior_penalty(mesh, dofmap, basis, scheme):
    """Symmetric interior-penalty coupling on interior edges."""
    if scheme.method is not Method.SIPDG:
        raise SchemeMismatch("interior penalty is only defined for the sipdg scheme")
    _check_space(mesh, dofmap, basis.degree)
    coef = _penalty_form(scheme, mesh.interior_edges)
    return _compress([_edge_part(mesh, basis, mesh.interior_edges, coef)], dofmap)


def assemble_load(mesh, dofmap, basis, scheme, data):
    """Load vector: volume source plus the Robin form of the boundary data."""
    _check_space(mesh, dofmap, basis.degree)
    rule = _default_volume_rule(basis.degree)
    fval = values_at(data.f, mesh.physical_points(rule.points))  # (T, q)
    load = mesh.det[:, None] * ((fval * rule.weights) @ basis.eval(rule.points))
    edges, given = mesh.boundary_edges, functools.partial(_robin_data, scheme, data)
    robin = _edge_vector(_edge_kernel(mesh, basis, edges), _robin_form(scheme, edges), given)
    return _vector([(_cells(mesh), load), (edges.element_ids, robin)], dofmap)


_SPACES = weakref.WeakKeyDictionary()  # Mesh -> {(degree, method): _assembly_space result}


def _assembly_space(mesh, scheme):
    """(basis, dofmap, prolongation, volume, edge_slots) of a mesh and scheme,
    memoized: volume is the stiffness as a BSR matrix on the block pattern of
    all the forms, edge_slots the data entry of every edge triplet."""
    spaces = _SPACES.setdefault(mesh, {})
    key = (scheme.degree, scheme.method)
    if key not in spaces:
        basis = reference_basis(scheme.degree)
        dofmap = build_dofmap(mesh, scheme.degree, continuous=scheme.continuous)
        dofmap.cell_dofs.setflags(write=False)
        p1 = scheme.continuous and scheme.degree == 1
        prolongation = None if p1 else continuous_embedding(dofmap, build_dofmap(mesh, 1, continuous=True))
        elements = [_cells(mesh)] + [e.element_ids for e in _edge_tables(mesh, scheme.method)]
        slots, bind, bptr = _pattern(elements, dofmap)
        vol = _volume_part(mesh, basis)[1].ravel()
        volume = _bsr(slots[:len(vol)], vol, bind, bptr, dofmap.n_dofs)
        spaces[key] = (basis, dofmap, prolongation, volume, slots[len(vol):].copy())
    return spaces[key]


def _matrix(mesh, scheme, coefs, order=None):
    """The memoized volume plus one bincount of the edge forms with
    coefficients coefs, one per edge table, on the memoized pattern."""
    basis, dofmap, _, volume, edge_slots = _assembly_space(mesh, scheme)
    tables = zip(_edge_tables(mesh, scheme.method), coefs)
    blocks = [_edge_part(mesh, basis, edges, coef, order)[1].ravel() for edges, coef in tables]
    matrix = _bsr(edge_slots, np.concatenate(blocks), volume.indices, volume.indptr, dofmap.n_dofs)
    matrix.data += volume.data
    return _csr(matrix)


def assemble(mesh, scheme, data):
    """Build the full linear system for one mesh and scheme."""
    basis, dofmap, prolongation = _assembly_space(mesh, scheme)[:3]
    tables = zip(_edge_tables(mesh, scheme.method), (_robin_form, _penalty_form))
    matrix = _matrix(mesh, scheme, [form(scheme, edges) for edges, form in tables])
    rhs = assemble_load(mesh, dofmap, basis, scheme, data)
    prolongation = None if prolongation is None else prolongation.copy()
    return SparseSystem(matrix=matrix, rhs=rhs, dofmap=dofmap, prolongation=prolongation)


def norm_matrix(mesh, scheme, variant="energy"):
    """Gram matrix of the mesh-dependent energy norm, on the pattern of the
    scheme's system.

    variant "energy": gradient term, boundary trace term weighted by
    1/(eps + h_E), and for the discontinuous scheme the interior jump
    term 1/h_E.  variant "augmented" adds the edge flux terms h_E
    (normal derivative on the boundary, mean gradient on interior
    edges) that make the norm control the discrete bilinear form.
    """
    if variant not in ("energy", "augmented"):
        raise InvalidParameter(f"unknown norm variant {variant!r}")
    return _matrix(mesh, scheme, _norm_coefs(mesh, scheme, variant), 8)


def _norm_coefs(mesh, scheme, variant):
    """The energy-norm coefficients, (E, m, m) per edge table of the scheme."""
    tables = _edge_tables(mesh, scheme.method)
    return [_norm_form(scheme, e, variant)[:, :, None] * np.eye(e.element_ids.shape[1] + 1) for e in tables]


def write_matrix(matrix, path):
    """Dump a sparse matrix as sorted 'row col value' triples."""
    csr = sp.csr_matrix(matrix, copy=True)  # sum_duplicates sorts in place
    csr.sum_duplicates()
    coo = csr.tocoo()
    write_lines(path, (f"{i} {j} {v:.17g}" for i, j, v in zip(coo.row, coo.col, coo.data)))
