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
one GEMM per class tuple: 6 on boundary and 36 on interior edges, at no
physical point.  Loads sum_q w_q (C d).t and squared norms sum_q w_q
diag(C) e^2 evaluate the data trace d and the error e at once on the rule
points of a table that Mesh.edge_points maps; the boundary load is thus
l(v) = b_Robin((u0 + eps*g, 0), v).  The volume stiffness is the same
contraction on each element, whose map x = v0 + B xi, det B and B^-1 live
on the Mesh.  _default_rules picks each degree's triangle and edge rule,
exact on the stiffness and every edge matrix.

Every form contributes (elements, blocks) parts and every load (elements, values) parts, a row per
element or edge over the dofs of its k elements.  A block, the one slot unit, is a dof (nb = 1) in a
continuous space and element t's dofs t*nb .. t*nb + nb - 1 in a discontinuous one.  Parts are
block-major, (E, k, k, nb, nb); the forms on a space share one block pattern, the structure of D^T D
with D the 0/1 incidence of the parts' rows and the blocks, with a slot per block (e, s, t) of a part
(_pattern); a standalone form's pattern is that of its one part.  A matrix is one block scatter of its
parts onto the BSR data of that pattern (each entry's terms in input order, exact-zero sums kept),
which scipy converts to CSR; a vector is one bincount onto its dofs.

A mesh's memo, its entry in one table keyed weakly by the Mesh and so released with it, holds only what
the kernels read.  Under each EdgeTable: its edges grouped per class tuple by one stable sort and the
trace coefficients A, which no form, rule or degree changes.  Under each (degree, method): the space,
built on first use, with basis, dof map, continuous-P1 prolongation, the volume stiffness as BSR data on
the block pattern of all its forms (0 where only edge forms couple) and the block slots of its edge
parts.  assemble and norm_matrix add one block scatter of their edge forms to that volume, so the Gram
matrix of the energy norm sits on the system's pattern.  An eps sweep builds the pattern and sums the
volume once, bitwise as an unmemoized run.  Matrices get their own index arrays, systems a copy of the
prolongation; the shared dof map is read-only.  That map, which assemble returns as system.dofmap, is
accepted by _check_space for where it came from, build_dofmap on this mesh, under the trust the assembly
already places in the memo, and is the error norms' default map; any other map is rebuilt and compared.
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
from .errors import InvalidParameter, SchemeMismatch, as_array, check_type, values_at
from .felib import (
    DofMap,
    ReferenceBasis,
    _check_dofs,
    build_dofmap,
    continuous_embedding,
    edge_rule,
    reference_basis,
    triangle_rule,
)
from .mesh import Mesh

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


def _check_epsilon(epsilon):
    """Raise InvalidParameter unless epsilon is a real number (not a bool), positive and finite."""
    if isinstance(epsilon, bool) or not isinstance(epsilon, numbers.Real):  # a bool is a numbers.Real
        raise InvalidParameter(f"epsilon must be a real number, got {epsilon!r}")
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise InvalidParameter(f"epsilon must be positive, got {epsilon}")


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
        _check_epsilon(self.epsilon)
        if isinstance(self.gamma, bool) or not isinstance(self.gamma, numbers.Real):  # a bool is a numbers.Real
            raise InvalidParameter(f"gamma must be a real number, got {self.gamma!r}")
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
    """Robin edge weights (c1, c2, c3) of h_e, a real number or an array of them.

    Raises InvalidParameter unless every h_E is real, positive and finite, and
    where 1/(eps + gamma*h_E) would overflow.
    """
    check_type(scheme, Scheme, "scheme")
    h_e = as_array(h_e, "biuf", "h_E must be real")
    if not (np.all(np.greater(h_e, 0.0)) and np.all(np.isfinite(h_e))):  # a NaN is not greater than 0
        raise InvalidParameter(f"h_E must be positive and finite, got {h_e!r}")
    denom = scheme.epsilon + scheme.gamma * h_e
    if np.any(denom <= _SMALLEST_DENOMINATOR):
        raise InvalidParameter(
            f"the Robin weight 1/(epsilon + gamma*h_E) overflows at epsilon={scheme.epsilon}, "
            f"gamma={scheme.gamma} and h_E={float(np.min(h_e)):.3g}"
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


def _default_rules(degree):
    """The forms' triangle rule and edge rule order: each integrates the
    stiffness and every edge matrix of the degree exactly."""
    return (triangle_rule(4), 4) if degree == 1 else (triangle_rule(6), 8)


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
    and K (6^k, 9k^2, (k*nb)^2) = sum_q w_q T_q (x) T_q, its columns in
    block order (s, t, i, j): side s's basis function i against side t's j."""
    basis, rule = reference_basis(degree), edge_rule(order)
    nq, nb, n = len(rule.points), basis.n_nodes, len(_CLASSES) ** k
    a, b = basis.nodes[np.transpose(_CLASSES)][:, :, None]  # the reference vertices a and b of each class
    ref = (a + rule.points[:, None] * (b - a)).reshape(-1, 2)
    tables = np.concatenate([basis.eval(ref)[:, None], basis.eval_grad(ref).transpose(0, 2, 1)], axis=1)
    diag = np.zeros((n, nq, k, 3, k, nb))
    for side, classes in enumerate(np.indices((len(_CLASSES),) * k).reshape(k, n)):
        diag[:, :, side, :, side] = tables.reshape(len(_CLASSES), nq, 3, nb)[classes]
    diag = diag.reshape(n, nq, 3 * k, k, nb)
    tensors = np.einsum("q,cqasi,cqbtj->cabstij", rule.weights, diag, diag).reshape(n, 9 * k * k, -1)
    for array in (diag, tensors):
        array.setflags(write=False)
    return diag.reshape(n, nq * 3 * k, k * nb), tensors


_MEMO = weakref.WeakKeyDictionary()  # Mesh -> {EdgeTable: _edge_facts result, (degree, method): _assembly_space result}


def _edge_facts(mesh, edges):
    """(groups, lift): what no form, rule or degree changes on an edge table of
    mesh, memoized under it in the mesh's memo: its edges grouped per class
    tuple ((c, ascending edge ids), by one stable sort of the class tuples) and
    the trace coefficients A (E, m, 3k) (side sigma, v1 on element_ids[:, 0],
    in columns 3 sigma ..).  All read-only."""
    if edges not in (memo := _MEMO.setdefault(mesh, {})):
        frame, k = _edge_frame(edges), edges.element_ids.shape[1]
        lift, classes = np.zeros((len(edges), frame.shape[2] + 1, 3 * k)), 0
        for side, elems in enumerate(edges.element_ids.T):
            tri = mesh.triangles[elems]  # a and b: the local indices of the edge's two vertices
            a, b = (np.where(tri[:, 0] == v, 0, np.where(tri[:, 1] == v, 1, 2)) for v in edges.vertex_ids.T)
            classes = len(_CLASSES) * classes + 2 * a + b - (b > a)  # the index of (a, b) in _CLASSES
            lift[:, 0, 3 * side] = -1.0 if side else 1.0
            lift[:, 1:, 3 * side + 1:3 * side + 3] = (mesh.invB[elems] @ frame).transpose(0, 2, 1) / k
        order = np.argsort(classes, kind="stable")
        cuts = np.flatnonzero(np.diff(classes[order])) + 1
        groups = [(int(classes[ids[0]]), ids) for ids in np.split(order, cuts) if len(ids)]
        for array in [lift] + [ids for _, ids in groups]:
            array.setflags(write=False)
        memo[edges] = tuple(groups), lift
    return memo[edges]


def _per_class(groups, rows, tensors):
    """rows[e] @ tensors[c] (E, tensors.shape[2]) for every edge e of class tuple c: one GEMM per group."""
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


def _edge_part(mesh, basis, edges, coef):
    """The (elements, blocks) part sum_q w_q t^T C t of one edge table on the degree's edge rule, block-major
    (E, k, k, nb, nb): per class tuple, the W = A^T C A of its edges, formed for that group alone, times its
    K, whose block-order columns make each GEMM row an edge's k^2 blocks."""
    (groups, lift), k, nb = _edge_facts(mesh, edges), edges.element_ids.shape[1], basis.n_nodes
    tensors = _edge_tensors(basis.degree, _default_rules(basis.degree)[1], k)[1]
    blocks = np.empty((len(edges), tensors.shape[2]))
    for c, ids in groups:
        a = lift[ids]
        blocks[ids] = (a.transpose(0, 2, 1) @ coef[ids] @ a).reshape(len(ids), -1) @ tensors[c]
    return edges.element_ids, blocks.reshape(len(edges), k, k, nb, nb)


def _edge_vector(mesh, degree, edges, order, coef, trace):
    """The values sum_q w_q (C d).t (E, k*nb) of one edge table under edge rule
    order, with d = trace(x) on all its rule points x (q, E, 2) at once: per
    class tuple, w_q A^T C d times its T."""
    rule, (groups, lift) = edge_rule(order), _edge_facts(mesh, edges)
    tables = _edge_tensors(degree, order, edges.element_ids.shape[1])[0]
    d = trace(mesh.edge_points(edges, rule.points))
    z = rule.weights[:, None, None] * (lift.transpose(0, 2, 1) @ coef @ d[..., None])[..., 0]  # (q, E, 3k)
    return _per_class(groups, z.transpose(1, 0, 2).reshape(len(lift), tables.shape[1]), tables)


def _edge_error_sq(mesh, dofmap, scheme, edges, data, solution):
    """Per component, sum_q w_q diag(C) e^2 of the augmented energy norm on edge
    rule 8, with e the exact trace minus the trace A T c of the dof vector solution."""
    rule, (groups, lift) = edge_rule(8), _edge_facts(mesh, edges)
    tables = _edge_tensors(scheme.degree, 8, edges.element_ids.shape[1])[0]
    local = solution[dofmap.cell_dofs[edges.element_ids]].reshape(len(edges), tables.shape[2])  # (E, k*nb)
    ref = _per_class(groups, local, tables.transpose(0, 2, 1))
    uh = (lift[:, None] @ ref.reshape(len(edges), len(rule.weights), lift.shape[2], 1))[..., 0]  # (E, q, m)
    e = _exact_trace(data, edges, mesh.edge_points(edges, rule.points)) - uh.transpose(1, 0, 2)  # (q, E, m)
    # summed over E, then over q in rule order
    return np.sum(rule.weights[:, None] * np.sum(_norm_form(scheme, edges, "augmented") * e * e, axis=1), axis=0).tolist()


def _pattern(dofmap, elements):
    """The BSR pattern (bslots, indices, indptr) of nb x nb blocks of parts on (E, k) elements: the sorted
    CSR structure of D^T D, with D the 0/1 incidence of the parts' rows and the blocks, a row being an
    element's dofs in a continuous space and the k elements themselves in a discontinuous one.  bslots
    holds the data block of every block (e, s, t) of the parts, in part order, read off that graph with
    each entry tagged by its place.  D stays bool: its sums can neither cancel nor wrap."""
    nb = 1 if dofmap.continuous else dofmap.cell_dofs.shape[1]
    rows = [dofmap.cell_dofs[e[:, 0]] if dofmap.continuous else e for e in elements]
    incidence = sp.vstack([sp.csr_matrix((np.ones(r.size, dtype=bool), r.ravel(), np.arange(0, r.size + 1, r.shape[1])),
                                         shape=(len(r), dofmap.n_dofs // nb)) for r in rows], format="csr")
    graph = (incidence.T @ incidence).tocsr()
    graph.sort_indices()
    graph.data = np.arange(graph.nnz, dtype=graph.indices.dtype)
    if not incidence.nnz:  # scipy refuses empty index arrays
        return graph.data, graph.indices, graph.indptr
    rows = [r.astype(graph.indices.dtype) for r in rows]  # as scipy's lookup takes them
    rows_of_blocks = np.concatenate([np.repeat(r, r.shape[1], axis=1).ravel() for r in rows])
    cols_of_blocks = np.concatenate([np.tile(r, r.shape[1]).ravel() for r in rows])
    return np.asarray(graph[rows_of_blocks, cols_of_blocks]).ravel(), graph.indices, graph.indptr


def _bsr(bslots, values, bind, bptr, n):
    """The n x n BSR matrix on the block pattern (bind, bptr) whose block j sums, in input order, the blocks
    r of values (R, nb, nb) with bslots[r] = j: at nb = 1 one bincount onto CSR on copies of bind and bptr
    (0.3 ms where scipy's conversion from BSR takes 2.4 ms, 566,785 entries, one x86_64 core); above, one
    product of the 0/1 CSC matrix (blocks, R) of bslots with values (R, nb^2), which adds column by column."""
    nb, r = n // (len(bptr) - 1), len(bslots)
    if nb == 1:
        return sp.csr_matrix((np.bincount(bslots, values.ravel(), len(bind)), bind.copy(), bptr.copy()), shape=(n, n))
    scatter = sp.csc_matrix((np.ones(r), bslots, np.arange(r + 1)), shape=(len(bind), r))
    return sp.bsr_matrix(((scatter @ values.reshape(r, nb * nb)).reshape(-1, nb, nb), bind, bptr), shape=(n, n))


def _compress(elements, blocks, dofmap):
    """Deterministic COO -> CSR of one (elements, blocks) part, through _bsr."""
    bslots, bind, bptr = _pattern(dofmap, [elements])
    return _bsr(bslots, blocks, bind, bptr, dofmap.n_dofs).tocsr()


def _vector(parts, dofmap):
    """The sum of the (elements, values) parts over the dofs of dofmap: one bincount, in part order."""
    dofs = np.concatenate([dofmap.cell_dofs[e].ravel() for e, _ in parts])
    return np.bincount(dofs, np.concatenate([v.ravel() for _, v in parts]), dofmap.n_dofs)


def _cells(mesh):
    """Every element as a part of one element: (T, 1)."""
    return np.arange(mesh.n_triangles)[:, None]


def _volume_part(mesh, basis):
    """The (elements, blocks) part of the stiffness (grad w, grad v).

    K[a, b, i, j] = sum_q w_q d_a phi_i d_b phi_j is built once from the
    rule; the blocks are one matrix product of K with the geometry tensors
    det * B^-1 B^-T of all elements, as columns (det J_a0) J_b0 + (det J_a1) J_b1
    of J = B^-1.  That association is einsum's ("t,tac,tbc->tab"), whose bits
    the matrices keep.
    """
    rule = _default_rules(basis.degree)[0]
    gref = basis.eval_grad(rule.points)  # (q, nb, 2)
    k_ref = np.einsum("q,qia,qjb->abij", rule.weights, gref, gref)
    d, inv = mesh.det, mesh.invB
    g_geo = np.stack([d * inv[:, a, 0] * inv[:, b, 0] + d * inv[:, a, 1] * inv[:, b, 1] for a in (0, 1) for b in (0, 1)], -1)
    nb = basis.n_nodes
    blocks = g_geo @ k_ref.reshape(4, nb * nb)
    return _cells(mesh), blocks.reshape(-1, nb, nb)


def _memo_dofmaps(mesh):
    """{(degree, method): dof map} of the spaces in mesh's memo."""
    return {key: space[1] for key, space in _MEMO.get(mesh, {}).items() if isinstance(key, tuple)}


def _check_space(mesh, dofmap, basis, solution=None):
    """Raise InvalidParameter unless basis is a ReferenceBasis, dofmap numbers dofs of its degree on every
    triangle of mesh as build_dofmap does, and solution, if given, has one entry per dof.  A discontinuous
    space's blocks are its elements, so _pattern needs that numbering there; a continuous space's pattern
    holds for any numbering, but its maps are held to build_dofmap's too.  The dof map of a space in mesh's
    memo, the one assemble returns, is accepted for where it came from, under the trust the assembly already
    places in the memo: build_dofmap made it on this mesh and the memo holds it read-only.  Every other map,
    an equal one too, is range-scanned, rebuilt and compared."""
    check_type(mesh, Mesh, "mesh")
    if not any(dofmap is own for own in _memo_dofmaps(mesh).values()):
        _check_dofs(mesh.n_triangles, dofmap)
        own = build_dofmap(mesh, dofmap.degree, dofmap.continuous)
        if dofmap.n_dofs != own.n_dofs or not np.array_equal(dofmap.cell_dofs, own.cell_dofs):
            raise InvalidParameter("the dof map does not number " + ("its dofs as build_dofmap does: vertices, then edge "
                                   "midpoints in edge order" if dofmap.continuous else "element t's nb dofs t*nb .. t*nb + nb - 1"))
    check_type(basis, ReferenceBasis, "basis")
    if dofmap.degree != basis.degree:
        raise InvalidParameter(f"the dof map has degree {dofmap.degree}, the basis or scheme degree {basis.degree}")
    if solution is not None and np.shape(solution) != (dofmap.n_dofs,):
        raise InvalidParameter(f"the solution has shape {np.shape(solution)}, the dof map {dofmap.n_dofs} dofs")


def assemble_volume(mesh, dofmap, basis):
    """Stiffness contribution (grad w, grad v) over all elements."""
    _check_space(mesh, dofmap, basis)
    return _compress(*_volume_part(mesh, basis), dofmap)


def assemble_nitsche_boundary(mesh, dofmap, basis, scheme):
    """Boundary form shared by both schemes: the Robin form."""
    check_type(scheme, Scheme, "scheme")
    _check_space(mesh, dofmap, basis)
    coef = _robin_form(scheme, mesh.boundary_edges)
    return _compress(*_edge_part(mesh, basis, mesh.boundary_edges, coef), dofmap)


def assemble_interior_penalty(mesh, dofmap, basis, scheme):
    """Symmetric interior-penalty coupling on interior edges."""
    check_type(scheme, Scheme, "scheme")
    if scheme.method is not Method.SIPDG:
        raise SchemeMismatch("interior penalty is only defined for the sipdg scheme")
    _check_space(mesh, dofmap, basis)
    if dofmap.continuous:  # whose pattern holds no pair across an edge
        raise SchemeMismatch("interior penalty is only defined on a discontinuous dof map")
    coef = _penalty_form(scheme, mesh.interior_edges)
    return _compress(*_edge_part(mesh, basis, mesh.interior_edges, coef), dofmap)


def assemble_load(mesh, dofmap, basis, scheme, data):
    """Load vector: volume source plus the Robin form of the boundary data."""
    check_type(scheme, Scheme, "scheme")
    check_type(data, ProblemData, "data")
    _check_space(mesh, dofmap, basis)
    rule, order = _default_rules(basis.degree)
    fval = values_at(data.f, mesh.physical_points(rule.points))  # (T, q)
    load = mesh.det[:, None] * ((fval * rule.weights) @ basis.eval(rule.points))
    edges, given = mesh.boundary_edges, functools.partial(_robin_data, scheme, data)
    robin = _edge_vector(mesh, basis.degree, edges, order, _robin_form(scheme, edges), given)
    return _vector([(_cells(mesh), load), (edges.element_ids, robin)], dofmap)


def _assembly_space(mesh, scheme):
    """(basis, dofmap, prolongation, volume, edge_slots) of a mesh and scheme,
    memoized under (degree, method) in the mesh's memo: volume is the stiffness
    as a _bsr matrix on the block pattern of all the forms, edge_slots the data
    block of every edge part's block."""
    check_type(mesh, Mesh, "mesh")
    spaces, key = _MEMO.setdefault(mesh, {}), (scheme.degree, scheme.method)
    if key not in spaces:
        basis = reference_basis(scheme.degree)
        dofmap = build_dofmap(mesh, scheme.degree, continuous=scheme.continuous)
        dofmap.cell_dofs.setflags(write=False)
        p1 = scheme.continuous and scheme.degree == 1
        prolongation = None if p1 else continuous_embedding(dofmap, build_dofmap(mesh, 1, continuous=True))
        elements = [_cells(mesh)] + [e.element_ids for e in _edge_tables(mesh, scheme.method)]
        bslots, bind, bptr = _pattern(dofmap, elements)
        vol = _volume_part(mesh, basis)[1]
        n_vol = vol.size if scheme.continuous else len(vol)  # one block per dof pair or per element
        volume = _bsr(bslots[:n_vol], vol, bind, bptr, dofmap.n_dofs)
        spaces[key] = (basis, dofmap, prolongation, volume, bslots[n_vol:].copy())
    return spaces[key]


def _matrix(mesh, scheme, forms):
    """The memoized volume plus one block scatter of the edge forms whose
    coefficients are forms[i](scheme, edges) on edge table i, on the memoized pattern."""
    basis, dofmap, _, volume, edge_slots = _assembly_space(mesh, scheme)
    tables = zip(_edge_tables(mesh, scheme.method), forms)
    # the blocks, passed inline, are freed before the conversion to CSR
    matrix = _bsr(edge_slots, np.concatenate([_edge_part(mesh, basis, e, form(scheme, e))[1].ravel() for e, form in tables]),
                  volume.indices, volume.indptr, dofmap.n_dofs)
    matrix.data += volume.data
    return matrix.tocsr()


def assemble(mesh, scheme, data):
    """Build the full linear system for one mesh and scheme."""
    check_type(scheme, Scheme, "scheme")
    check_type(data, ProblemData, "data")
    basis, dofmap, prolongation = _assembly_space(mesh, scheme)[:3]
    matrix = _matrix(mesh, scheme, (_robin_form, _penalty_form))
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
    check_type(scheme, Scheme, "scheme")
    if variant not in ("energy", "augmented"):
        raise InvalidParameter(f"unknown norm variant {variant!r}")

    def form(scheme, edges):
        return _norm_form(scheme, edges, variant)[:, :, None] * np.eye(edges.element_ids.shape[1] + 1)

    return _matrix(mesh, scheme, (form, form))


def write_matrix(matrix, path):
    """Dump a sparse matrix as sorted 'row col value' triples."""
    try:
        csr = sp.csr_matrix(matrix, copy=True)  # sum_duplicates sorts in place
    except (TypeError, ValueError):
        raise InvalidParameter(f"the matrix must be a 2-d array of numbers, got a {type(matrix).__name__}") from None
    csr.sum_duplicates()
    coo = csr.tocoo()
    write_lines(path, (f"{i} {j} {v:.17g}" for i, j, v in zip(coo.row, coo.col, coo.data)))
