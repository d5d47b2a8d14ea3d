"""Triangulations of the computational domain.

The disk is meshed with concentric rings (ring j carries 6j equally spaced
vertices at radius j/N), which keeps the family shape-regular and places
every boundary vertex exactly on the unit circle.  The square is meshed
with a structured grid split into triangles.  The edge topology is built
explicitly as array tables: interior edges know their two elements in
ascending index order, boundary edges their single element, and every
normal points out of the first element, read off the direction in which
that counterclockwise triangle walks the edge.  Each Mesh also holds the
affine map of every element, which all volume and edge integrals use,
and rejects bad input with a typed error: vertex indices that are not
integers in range, non-finite or huge coordinates, non-positive areas, unused
vertices and non-manifold edges.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from ._atomic import write_lines
from .errors import FormatError, InvalidParameter, NonManifoldMesh, is_count
from .geometry import DomainKind

__all__ = [
    "EdgeTable",
    "Mesh",
    "build_edge_topology",
    "generate_disk_mesh",
    "generate_square_mesh",
    "level_mesh",
    "refinement_sequence",
    "write_mesh",
    "read_mesh",
]

# above this, products of coordinate differences (areas, element maps) may overflow
_MAX_COORDINATE = 1e150


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """Undirected mesh edges as read-only arrays, one row per edge.

    vertex_ids  : (E, 2) ascending vertex pair; rows sorted by that pair
    element_ids : (E, 2) ascending element pair for interior edges,
                  (E, 1) the single element for boundary edges
    h_e         : (E,) edge length
    normal      : (E, 2) unit normal; for boundary edges it points out of
                  the mesh, for interior edges from element_ids[:, 0]
                  into element_ids[:, 1]
    """

    vertex_ids: np.ndarray
    element_ids: np.ndarray
    h_e: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        for array in (self.vertex_ids, self.element_ids, self.h_e, self.normal):
            array.setflags(write=False)

    def __len__(self):
        return len(self.h_e)


class Mesh:
    """Immutable triangle mesh with full edge topology and the affine map
    x = v0 + B xi of every element onto the reference triangle.

    v0   : (T, 2) first vertex of every triangle
    B    : (T, 2, 2) edge vectors p1 - v0 and p2 - v0, as columns
    det  : (T,) det B, twice the (positive) area
    invB : (T, 2, 2) B^-1
    """

    def __init__(self, vertices, triangles, level=0):
        self.vertices = np.array(vertices, dtype=float)
        indices = np.asarray(triangles)
        if indices.size and indices.dtype.kind not in "iu":
            raise InvalidParameter(f"vertex indices must be integers, got {indices.dtype} values")
        self.triangles = indices.astype(np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise InvalidParameter("vertices must have shape (n, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise InvalidParameter("triangles must have shape (n, 3)")
        if len(self.triangles) == 0:
            raise InvalidParameter("mesh has no triangles")
        outside = ((self.triangles < 0) | (self.triangles >= len(self.vertices))).any(axis=1)
        if outside.any():
            bad = int(np.argmax(outside))
            tri = self.triangles[bad].tolist()
            raise InvalidParameter(f"triangle {bad} {tri} has a vertex index outside 0..{len(self.vertices) - 1}")
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            raise InvalidParameter(f"vertex {int(np.argmin(finite))} has a non-finite coordinate")
        size = np.abs(self.vertices).max(axis=1)
        if size.max() > _MAX_COORDINATE:
            raise InvalidParameter(
                f"vertex {int(np.argmax(size))} has a coordinate above {_MAX_COORDINATE:g} in magnitude"
            )
        self.v0 = self.vertices[self.triangles[:, 0]]
        e1, e2 = (self.vertices[self.triangles[:, k]] - self.v0 for k in (1, 2))
        self.B = np.stack([e1, e2], axis=-1)
        self.det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(self.det <= 0.0):
            bad = int(np.argmin(self.det))
            raise InvalidParameter(f"triangle {bad} has non-positive signed area {0.5 * self.det[bad]:.3e}")
        adj = np.stack([e2[:, 1], -e2[:, 0], -e1[:, 1], e1[:, 0]], axis=-1)
        self.invB = adj.reshape(-1, 2, 2) / self.det[:, None, None]
        used = np.zeros(len(self.vertices), dtype=bool)
        used[self.triangles] = True
        if not used.all():
            raise InvalidParameter(f"vertex {int(np.argmin(used))} belongs to no triangle")
        self.interior_edges, self.boundary_edges, self.cell_edges = build_edge_topology(
            self.vertices, self.triangles
        )
        all_h = np.concatenate([self.interior_edges.h_e, self.boundary_edges.h_e])
        self.h_max = float(all_h.max())  # triangle diameter equals its longest edge
        self.level = level
        for array in (self.vertices, self.triangles, self.cell_edges, self.v0, self.B, self.det, self.invB):
            array.setflags(write=False)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def triangle_areas(self):
        return 0.5 * self.det

    def physical_points(self, ref_points):
        """Map reference points (q, 2) into every element: (T, q, 2)."""
        bx = (self.B.reshape(-1, 2) @ ref_points.T).reshape(len(self.B), 2, -1)
        return self.v0[:, None, :] + bx.transpose(0, 2, 1)

    def min_angle_degrees(self):
        """Smallest interior angle over all triangles."""
        v = self.vertices[self.triangles]  # (T, 3, 2)
        angles = np.empty((len(v), 3))
        for k in range(3):
            a = v[:, (k + 1) % 3] - v[:, k]
            b = v[:, (k + 2) % 3] - v[:, k]
            cosang = np.sum(a * b, axis=1) / (
                np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
            )
            angles[:, k] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
        return float(angles.min())


def build_edge_topology(vertices, triangles):
    """Classify every undirected edge as interior (two elements) or boundary.

    Returns (interior, boundary, cell_edges): two EdgeTables sorted by
    vertex pair, so the result is deterministic for a fixed triangle
    list, and the (T, 3) rank of local edges (0,1), (1,2), (2,0) of every
    triangle among all edges in that order.  The triangles must be
    counterclockwise, as Mesh checks before it calls this: each normal
    then comes from the direction in which element_ids[:, 0] walks the
    edge, since that element lies left of its walk.  Raises
    NonManifoldMesh if any vertex pair is shared by more than two
    triangles, or if the two triangles of an interior edge walk it in the
    same direction: they then lie on the same side of it and overlap.
    """
    verts = np.asarray(vertices, dtype=float)
    tris = np.asarray(triangles, dtype=np.int64)
    # half-edge 3*t + k runs from tris[t, k] to tris[t, (k+1) % 3]
    tail, head = tris.ravel(), np.roll(tris, -1, axis=1).ravel()
    lo, hi = np.minimum(tail, head), np.maximum(tail, head)
    # stable sort: half-edges of one edge stay in ascending triangle order
    key = lo * len(verts) + hi
    order = np.argsort(key, kind="stable")
    is_first = np.ones(len(order), dtype=bool)
    is_first[1:] = np.diff(key[order]) != 0
    starts = np.flatnonzero(is_first)
    counts = np.diff(np.append(starts, len(order)))
    keys = np.column_stack([lo, hi])[order[starts]]
    if np.any(counts > 2):
        pair = tuple(int(v) for v in keys[np.argmax(counts > 2)])
        raise NonManifoldMesh(f"edge {pair} is shared by more than two triangles")
    inner = counts == 2
    ascending = (tail < head)[order]
    same_way = inner & (ascending[starts] == ascending[starts + inner])
    if np.any(same_way):
        pair = tuple(int(v) for v in keys[np.argmax(same_way)])
        raise NonManifoldMesh(f"edge {pair} is walked the same way by both its triangles")
    cell_edges = np.empty(len(order), dtype=np.int64)
    cell_edges[order] = np.cumsum(is_first) - 1
    owners = order // 3
    tang = verts[keys[:, 1]] - verts[keys[:, 0]]
    h_e = np.hypot(tang[:, 0], tang[:, 1])
    # right of the ascending tangent, so out of t0 where t0 walks the edge ascending
    nrm = np.column_stack([tang[:, 1], -tang[:, 0]]) / h_e[:, None]
    nrm = np.where(ascending[starts, None], nrm, -nrm)
    elems = np.column_stack([owners[starts], owners[starts + inner]])  # t0 twice on boundary edges
    interior = EdgeTable(keys[inner], elems[inner], h_e[inner], nrm[inner])
    boundary = EdgeTable(keys[~inner], elems[~inner, :1], h_e[~inner], nrm[~inner])
    return interior, boundary, cell_edges.reshape(-1, 3)


def generate_disk_mesh(rings, level=0):
    """Concentric-ring triangulation of the unit disk.

    Ring j in 1..rings holds 6j vertices at radius j/rings; the outermost
    ring lies exactly on the unit circle.  Yields 6*rings**2 triangles.
    """
    if not is_count(rings, 2):
        raise InvalidParameter(f"need an integer of at least 2 rings, got {rings!r}")
    # ring j holds vertices 1 + 3j(j-1) .. 3j(j+1), vertex m at angle 2 pi m / 6j
    ring = np.repeat(np.arange(1, rings + 1), 6 * np.arange(1, rings + 1))
    m = np.arange(len(ring)) - 3 * ring * (ring - 1)
    theta = 2.0 * np.pi * m / (6 * ring)
    radius = ring / rings
    verts = np.vstack([[0.0, 0.0], np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])])
    fan = np.arange(6)
    center = np.column_stack([np.zeros(6, dtype=np.int64), 1 + fan, 1 + (fan + 1) % 6])
    # ring j >= 2: per sector, j triangles on the outer side, then j - 1 on
    # the inner side; its first triangle is number 6((j-1)**2 - 1) of these
    jj = np.arange(2, rings + 1)
    j = np.repeat(jj, 6 * (2 * jj - 1))[:, None]
    sector, p = np.divmod(np.arange(len(j))[:, None] - 6 * ((j - 1) ** 2 - 1), 2 * j - 1)
    on_outer = p < j
    k = np.where(on_outer, p, p - j) + np.arange(2)  # local positions m and m + 1
    outer = 1 + 3 * j * (j - 1) + (sector * j + k) % (6 * j)
    inner = 1 + 3 * (j - 1) * (j - 2) + (sector * (j - 1) + k) % (6 * (j - 1))
    rest = np.where(
        on_outer,
        np.column_stack([outer, inner[:, :1]]),
        np.column_stack([inner[:, :1], outer[:, 1:], inner[:, 1:]]),
    )
    return Mesh(verts, np.concatenate([center, rest]), level=level)


def generate_square_mesh(n, level=0):
    """n-by-n grid on the unit square, each cell split along its diagonal."""
    if not is_count(n, 1):
        raise InvalidParameter(f"need an integer grid of at least 1x1, got {n!r}")
    coords = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords)
    verts = np.column_stack([xx.ravel(), yy.ravel()])
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()  # cells row by row
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    tris = np.stack([np.column_stack([v00, v10, v11]), np.column_stack([v00, v11, v01])], axis=1)
    return Mesh(verts, tris.reshape(-1, 3), level=level)


def level_mesh(domain, level):
    """Mesh of the standard ladder at one level: resolution 4 * 2**level."""
    if not is_count(level, 0):
        raise InvalidParameter(f"level must be a nonnegative integer, got {level!r}")
    size = 4 * 2**level
    if domain.kind is DomainKind.UNIT_DISK:
        return generate_disk_mesh(size, level=level)
    return generate_square_mesh(size, level=level)


def refinement_sequence(domain, levels):
    """Standard refinement ladder: level_mesh for levels 0 .. levels-1."""
    if not is_count(levels, 2):
        raise InvalidParameter(f"need an integer of at least 2 levels, got {levels!r}")
    return [level_mesh(domain, lvl) for lvl in range(levels)]


def write_mesh(mesh, path):
    """Write the line-oriented text format (17 significant digits)."""
    write_lines(path, itertools.chain(
        ["meshfmt 1", f"vertices {mesh.n_vertices}"],
        (f"{x:.17g} {y:.17g}" for x, y in mesh.vertices),
        [f"triangles {mesh.n_triangles}"],
        (f"{i} {j} {k}" for i, j, k in mesh.triangles),
    ))


def read_mesh(path):
    """Parse a mesh file; topology is rebuilt, not stored."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"byte {exc.start} is not UTF-8 text", line=line) from None
    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(lines):
            raise FormatError(f"unexpected end of file, expected {what}", line=pos + 1)
        pos += 1
        return lines[pos - 1], pos

    def take_count(keyword):  # checked against the lines left before allocating
        count = _take_count(take, keyword)
        if count > len(lines) - pos:
            raise FormatError(
                f"unexpected end of file: line {pos} announces {count} {keyword}, "
                f"{len(lines) - pos} lines follow",
                line=len(lines) + 1,
            )
        return count

    header, lineno = take("header")
    if header.strip() != "meshfmt 1":
        raise FormatError(f"expected 'meshfmt 1', got {header!r}", line=lineno)
    nv = take_count("vertices")
    verts = np.empty((nv, 2))
    for i in range(nv):
        text, lineno = take("vertex coordinates")
        parts = text.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'x y', got {text!r}", line=lineno)
        try:
            verts[i] = [float(parts[0]), float(parts[1])]
        except ValueError:
            raise FormatError(f"bad coordinate in {text!r}", line=lineno) from None
        if not np.isfinite(verts[i]).all():
            raise FormatError(f"non-finite coordinate in {text!r}", line=lineno)
    nt = take_count("triangles")
    tris = np.empty((nt, 3), dtype=np.int64)
    for i in range(nt):
        text, lineno = take("triangle indices")
        parts = text.split()
        if len(parts) != 3:
            raise FormatError(f"expected 'i j k', got {text!r}", line=lineno)
        try:
            idx = [int(p) for p in parts]
        except ValueError:
            raise FormatError(f"bad vertex index in {text!r}", line=lineno) from None
        for v in idx:
            if not 0 <= v < nv:
                raise FormatError(f"vertex index {v} out of range", line=lineno)
        tris[i] = idx
    while pos < len(lines):
        text, lineno = take("trailing comment")
        if text.strip() and not text.lstrip().startswith("#"):
            raise FormatError(f"unexpected content {text!r}", line=lineno)
    return Mesh(verts, tris)


def _take_count(take, keyword):
    text, lineno = take(f"'{keyword} <count>'")
    parts = text.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise FormatError(f"expected '{keyword} <count>', got {text!r}", line=lineno)
    try:
        count = int(parts[1])
    except ValueError:
        raise FormatError(f"bad count in {text!r}", line=lineno) from None
    if count < 0:
        raise FormatError(f"negative count in {text!r}", line=lineno)
    return count
