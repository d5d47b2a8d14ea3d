"""Reference-element machinery.

P1/P2 Lagrange bases with gradients on the unit reference triangle,
symmetric triangle quadrature and Gauss edge quadrature, and
degree-of-freedom maps for continuous and discontinuous (element-local)
spaces.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParameter, UnsupportedOrder, check_type, is_count, values_at

__all__ = [
    "QuadratureRule",
    "ReferenceBasis",
    "DofMap",
    "triangle_rule",
    "edge_rule",
    "reference_basis",
    "build_dofmap",
    "dof_points",
    "interpolate",
    "continuous_embedding",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points and weights.

    Triangle rules carry reference coordinates of shape (n, 2) and weights
    summing to the reference area 1/2.  Rules on an edge carry parameters
    of shape (n,) on [0, 1] and weights summing to 1.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int  # all polynomials up to this degree integrate exactly


def _tri_rule_from_barycentric(groups, degree):
    pts, wts = [], []
    for bary_groups, w in groups:
        for lam in bary_groups:
            pts.append([lam[1], lam[2]])  # reference coords (xi, eta)
            wts.append(w / 2.0)  # tabulated weights sum to 1; area is 1/2
    return _read_only(QuadratureRule(np.array(pts), np.array(wts), degree))


def _read_only(rule):
    rule.points.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule


def _perm3(a):
    """All distinct permutations of the barycentric triple (1-2a, a, a)."""
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


def _perm6(a, b):
    c = 1.0 - a - b
    return [(c, a, b), (c, b, a), (a, c, b), (a, b, c), (b, c, a), (b, a, c)]


def triangle_rule(order):
    """Symmetric quadrature rule on the unit reference triangle.

    Supported exactness orders: 2 (3 points), 4 (6 points), 6 (12 points).
    Each rule is built once; its arrays are read-only.
    """
    if not (is_count(order, 2) and order in (2, 4, 6)):
        raise UnsupportedOrder(f"no triangle rule of order {order!r}")
    return _triangle_rule(int(order))


@functools.cache
def _triangle_rule(order):
    if order == 2:
        return _tri_rule_from_barycentric([(_perm3(1.0 / 6.0), 1.0 / 3.0)], 2)
    if order == 4:
        return _tri_rule_from_barycentric(
            [
                (_perm3(0.445948490915965), 0.223381589678011),
                (_perm3(0.091576213509771), 0.109951743655322),
            ],
            4,
        )
    return _tri_rule_from_barycentric(
        [
            (_perm3(0.249286745170910), 0.116786275726379),
            (_perm3(0.063089014491502), 0.050844906370207),
            (_perm6(0.310352451033785, 0.053145049844816), 0.082851075618374),
        ],
        6,
    )


def edge_rule(order):
    """Gauss-Legendre rule on [0, 1]; order in {2, 4, 6, 8} maps to 2..5 points.
    Each rule is built once; its arrays are read-only."""
    if not (is_count(order, 2) and order in (2, 4, 6, 8)):
        raise UnsupportedOrder(f"no edge rule of order {order!r}")
    return _edge_rule(int(order))


@functools.cache
def _edge_rule(order):
    n = order // 2 + 1
    x, w = np.polynomial.legendre.leggauss(n)
    return _read_only(QuadratureRule((x + 1.0) / 2.0, w / 2.0, 2 * n - 1))


@dataclass(frozen=True)
class ReferenceBasis:
    """Lagrange basis of degree 1 or 2 on the reference triangle.

    Node ordering: the three vertices (0,0), (1,0), (0,1); for degree 2
    additionally the edge midpoints (1/2,0), (1/2,1/2), (0,1/2), node 3+k
    on the edge from vertex k to vertex k+1 (mod 3), as the dof map
    numbers them.  The nodes are read-only rows of one table.
    """

    degree: int
    nodes: np.ndarray

    @property
    def n_nodes(self):
        return len(self.nodes)

    def eval(self, points):
        """Basis values at reference points, shape (npoints, n_nodes)."""
        lam = _barycentric(np.atleast_2d(points))
        if self.degree == 1:
            return lam
        return np.concatenate([lam * (2.0 * lam - 1.0), 4.0 * lam * np.roll(lam, -1, axis=1)], axis=1)

    def eval_grad(self, points):
        """Reference gradients at reference points, shape (npoints, n_nodes, 2)."""
        points = np.atleast_2d(points)
        if self.degree == 1:
            return np.broadcast_to(_GRAD_LAMBDA, (len(points), 3, 2)).copy()
        lam = _barycentric(points)[:, :, None]
        vertices = (4.0 * lam - 1.0) * _GRAD_LAMBDA
        edges = 4.0 * (np.roll(lam, -1, axis=1) * _GRAD_LAMBDA + lam * np.roll(_GRAD_LAMBDA, -1, axis=0))
        return np.concatenate([vertices, edges], axis=1)


_GRAD_LAMBDA = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
_NODES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
_NODES.setflags(write=False)


def _barycentric(points):
    xi, eta = points[:, 0], points[:, 1]
    return np.column_stack([1.0 - xi - eta, xi, eta])


def reference_basis(degree):
    """The Lagrange basis of degree 1 (3 nodes) or 2 (6 nodes)."""
    if not (is_count(degree, 1) and degree <= 2):
        raise InvalidParameter(f"degree must be the integer 1 or 2, got {degree!r}")
    return ReferenceBasis(degree, _NODES[:3] if degree == 1 else _NODES)


@dataclass(frozen=True)
class DofMap:
    """Global degree-of-freedom numbering.

    Continuous maps share vertex (and, for degree 2, edge-midpoint) dofs
    between neighbouring elements; discontinuous maps give every element
    its own block of 3 or 6 dofs.
    """

    continuous: bool
    degree: int
    n_dofs: int
    cell_dofs: np.ndarray  # (n_triangles, nodes_per_cell)


def build_dofmap(mesh, degree, continuous):
    """Build the dof map for P1/P2, continuous or element-local, on a mesh."""
    from .mesh import Mesh  # mesh imports geometry, which imports this module

    check_type(mesh, Mesh, "mesh")
    per_cell = reference_basis(degree).n_nodes
    if not isinstance(continuous, (bool, np.bool_)):
        raise InvalidParameter(f"continuous must be a bool, got {continuous!r}")
    triangles = np.asarray(mesh.triangles)
    n_tri = len(triangles)
    n_vert = len(mesh.vertices)
    if not continuous:
        cell_dofs = np.arange(n_tri * per_cell, dtype=np.int64).reshape(n_tri, per_cell)
        return DofMap(False, degree, n_tri * per_cell, cell_dofs)
    if degree == 1:
        return DofMap(True, 1, n_vert, triangles.astype(np.int64))
    # one midpoint dof per edge, numbered after the vertices in edge order
    cell_dofs = np.concatenate([triangles, n_vert + mesh.cell_edges], axis=1)
    n_edges = len(mesh.interior_edges) + len(mesh.boundary_edges)
    return DofMap(True, 2, n_vert + n_edges, cell_dofs)


def _check_dofs(n_triangles, dofmap):
    """Raise InvalidParameter unless dofmap is a DofMap of an integer n_dofs whose cell_dofs is an integer array of
    n_triangles rows (None: any number), one column per node of its degree, holding every dof 0 .. n_dofs - 1."""
    check_type(dofmap, DofMap, "dofmap")
    if not is_count(dofmap.n_dofs, 0):
        raise InvalidParameter(f"the dof map's n_dofs must be a nonnegative integer, got {dofmap.n_dofs!r}")
    cells = dofmap.cell_dofs
    n_triangles = len(cells) if n_triangles is None and np.ndim(cells) else n_triangles
    shape = (n_triangles, reference_basis(dofmap.degree).n_nodes)
    if np.ndim(cells) and len(cells) != n_triangles:
        raise InvalidParameter(f"the dof map has {len(cells)} cells, the mesh {n_triangles} triangles")
    if not (isinstance(cells, np.ndarray) and cells.dtype.kind in "iu" and cells.shape == shape):
        raise InvalidParameter(f"the dof map's cell_dofs must be an integer array of shape {shape}")
    if np.any((cells < 0) | (cells >= dofmap.n_dofs)):
        raise InvalidParameter(f"the dof map numbers a dof outside 0 .. {dofmap.n_dofs - 1}")
    if not np.bincount(cells.ravel().astype(np.intp, copy=False), minlength=dofmap.n_dofs).all():  # bincount refuses uint64
        raise InvalidParameter(f"the dof map leaves a dof of 0 .. {dofmap.n_dofs - 1} unused")


def dof_points(mesh, dofmap):
    """Physical coordinates of every global dof, shape (n_dofs, 2): the
    reference nodes under each element's map, scattered by cell_dofs."""
    from .mesh import Mesh  # mesh imports geometry, which imports this module

    check_type(mesh, Mesh, "mesh")
    _check_dofs(mesh.n_triangles, dofmap)
    pts = np.empty((dofmap.n_dofs, 2))
    pts[dofmap.cell_dofs] = mesh.physical_points(reference_basis(dofmap.degree).nodes)
    return pts


def interpolate(mesh, dofmap, func):
    """Nodal interpolation of ``func(x, y)`` into the FE space: a new array of
    n_dofs floats; InvalidParameter unless func's values are real and broadcast."""
    return np.array(values_at(func, dof_points(mesh, dofmap), what="the interpolated function"))


def continuous_embedding(dofmap, dofmap_cont):
    """Nodal embedding of a continuous space into the space of dofmap.

    The continuous source may have any degree up to the target's.  Row i
    holds the source basis functions evaluated at dof i, read from the
    first (element, local node) that carries the dof, so E @ x
    represents the same function in the target space.
    """
    _check_dofs(None, dofmap)
    _check_dofs(len(dofmap.cell_dofs), dofmap_cont)  # on the same mesh
    if not dofmap_cont.continuous:
        raise InvalidParameter("the embedded dof map must be continuous")
    if dofmap_cont.degree > dofmap.degree:
        raise InvalidParameter("the embedded space must not have a higher degree")
    hats = reference_basis(dofmap_cont.degree).eval(reference_basis(dofmap.degree).nodes)
    dofs, first = np.unique(dofmap.cell_dofs, return_index=True)
    elem, node = np.divmod(first, dofmap.cell_dofs.shape[1])
    rows = np.repeat(dofs, hats.shape[1])
    cols = dofmap_cont.cell_dofs[elem].ravel()
    vals = hats[node].ravel()
    keep = vals != 0.0
    return sp.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(dofmap.n_dofs, dofmap_cont.n_dofs)
    )
