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
from .errors import FormatError, InvalidParameter, NonManifoldMesh, as_array, as_path, check_type, is_count
from .geometry import Domain, DomainKind

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

# triangles (or edges) per block of the quadrature passes, which so hold O(_BLOCK) points at a time; a
# multiple of 4, so that BLAS's GEMV kernels, which take 4 rows at a time, give each row the bits of one block
_BLOCK = 4096


def _blocks(n):
    """Consecutive slices of range(n), _BLOCK items each but the last.  BLAS rounds a one-row GEMM as a
    GEMV, so a last block of one item joins the block before, and every row comes out as in one block."""
    cuts = list(range(0, n, _BLOCK)) + [n]
    if len(cuts) > 2 and n - cuts[-2] == 1:
        del cuts[-2]
    return (slice(a, b) for a, b in zip(cuts, cuts[1:]))


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
        self.vertices = np.array(as_array(vertices, "biuf", "vertex coordinates must be real numbers"), dtype=float)
        self.triangles = as_array(triangles, "iu", "vertex indices must be integers").astype(np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise InvalidParameter("vertices must have shape (n, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise InvalidParameter("triangles must have shape (n, 3)")
        if len(self.triangles) == 0:
            raise InvalidParameter("mesh has no triangles")
        if not is_count(level, 0):
            raise InvalidParameter(f"level must be a nonnegative integer, got {level!r}")
        # each check is one whole-array test; the row to name is looked for only when it fails
        if self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices):
            bad = int(np.argmax(((self.triangles < 0) | (self.triangles >= len(self.vertices))).any(axis=1)))
            tri = self.triangles[bad].tolist()
            raise InvalidParameter(f"triangle {bad} {tri} has a vertex index outside 0..{len(self.vertices) - 1}")
        if not np.isfinite(self.vertices).all():
            bad = int(np.argmin(np.isfinite(self.vertices).all(axis=1)))
            raise InvalidParameter(f"vertex {bad} has a non-finite coordinate")
        if np.abs(self.vertices).max() > _MAX_COORDINATE:
            bad = int(np.argmax(np.abs(self.vertices).max(axis=1)))
            raise InvalidParameter(f"vertex {bad} has a coordinate above {_MAX_COORDINATE:g} in magnitude")
        self.v0 = self.vertices[self.triangles[:, 0]]
        e1, e2 = (self.vertices[self.triangles[:, k]] - self.v0 for k in (1, 2))
        self.B = np.stack([e1, e2], axis=-1)
        self.det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(self.det <= 0.0):
            bad = int(np.argmin(self.det))
            raise InvalidParameter(f"triangle {bad} has non-positive signed area {0.5 * self.det[bad]:.3e}")
        adj = np.stack([e2[:, 1], -e2[:, 0], -e1[:, 1], e1[:, 0]], axis=-1)
        with np.errstate(over="ignore"):
            self.invB = adj.reshape(-1, 2, 2) / self.det[:, None, None]
        if not np.isfinite(self.invB).all():
            bad = int(np.argmin(np.isfinite(self.invB).all(axis=(1, 2))))
            raise InvalidParameter(f"triangle {bad} has area {0.5 * self.det[bad]:.3e}, too small to invert its map")
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

    def physical_points(self, ref_points, cells=slice(None)):
        """Map reference points (q, 2) into the elements of cells, a slice (the quadrature passes
        map them once per block of _BLOCK triangles): (T, q, 2), a view of a coordinate-major buffer,
        so that x[..., 0] and x[..., 1] are C-contiguous (T, q) planes.  Each plane is one GEMM
        B[cells, c, :] xi^T, then v0[cells, c] added in place."""
        B, v0 = self.B[cells], self.v0[cells]
        xy = np.empty((2, len(B), len(ref_points)))
        for c in (0, 1):
            np.matmul(B[:, c, :], ref_points.T, out=xy[c])
            xy[c] += v0[:, c, None]
        return np.moveaxis(xy, 0, -1)

    def edge_points(self, edges, params, ids=slice(None)):
        """Map edge parameters s (q,) in [0, 1] onto the edges ids, a slice, of edges, lower to higher vertex:
        (q, E, 2), a view of a coordinate-major buffer, so that x[..., 0] and x[..., 1] are C-contiguous (q, E) planes."""
        pa, pb = (self.vertices.T.take(v, axis=1)[:, None] for v in edges.vertex_ids[ids].T)  # (2, 1, E)
        return np.moveaxis(pa + params[:, None] * (pb - pa), 0, -1)

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
    key = key[order]
    is_first = np.ones(len(order), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=is_first[1:])
    starts = np.flatnonzero(is_first)
    counts = np.diff(np.append(starts, len(order)))
    lo, hi = lo[order[starts]], hi[order[starts]]  # every edge's vertex pair
    if np.any(counts > 2):
        bad = np.argmax(counts > 2)
        raise NonManifoldMesh(f"edge {(int(lo[bad]), int(hi[bad]))} is shared by more than two triangles")
    inner = counts == 2
    ascending = (tail < head)[order]
    same_way = inner & (ascending[starts] == ascending[starts + inner])
    if np.any(same_way):
        bad = np.argmax(same_way)
        raise NonManifoldMesh(f"edge {(int(lo[bad]), int(hi[bad]))} is walked the same way by both its triangles")
    cell_edges = np.empty(len(order), dtype=np.int64)
    cell_edges[order] = np.cumsum(is_first) - 1
    owners = order // 3
    tang = verts[hi] - verts[lo]
    h_e = np.hypot(tang[:, 0], tang[:, 1])
    # right of the ascending tangent, so out of t0 where t0 walks the edge ascending
    nrm = np.column_stack([tang[:, 1], -tang[:, 0]]) / h_e[:, None]
    nrm = np.where(ascending[starts, None], nrm, -nrm)
    ins, outs = np.flatnonzero(inner), np.flatnonzero(~inner)
    pair = np.column_stack([owners[starts[ins]], owners[starts[ins] + 1]])
    interior = EdgeTable(np.column_stack([lo[ins], hi[ins]]), pair, h_e[ins], nrm[ins])
    boundary = EdgeTable(np.column_stack([lo[outs], hi[outs]]), owners[starts[outs], None], h_e[outs], nrm[outs])
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
    check_type(domain, Domain, "domain")
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
    check_type(mesh, Mesh, "mesh")
    write_lines(path, itertools.chain(
        ["meshfmt 1", f"vertices {mesh.n_vertices}"],
        (f"{x:.17g} {y:.17g}" for x, y in mesh.vertices),
        [f"triangles {mesh.n_triangles}"],
        (f"{i} {j} {k}" for i, j, k in mesh.triangles),
    ))


def read_mesh(path):
    """Parse a mesh file; topology is rebuilt, not stored."""
    with open(as_path(path), "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"byte {exc.start} is not UTF-8 text", line=line) from None
    # lines end at "\n" alone (str.splitlines also breaks at \f, \x85, U+2028, ...),
    # each dropping one "\r" so that CRLF files read too
    lines = [line.removesuffix("\r") for line in text.split("\n")]
    if lines[-1] == "":
        lines.pop()  # the text after the final newline
    if not lines:
        raise FormatError("unexpected end of file, expected header", line=1)
    if lines[0].strip(" \t") != "meshfmt 1":
        raise FormatError(f"expected 'meshfmt 1', got {lines[0]!r}", line=1)

    def finite(xy, text):
        return None if np.isfinite(xy).all() else f"non-finite coordinate in {text!r}"

    verts = _read_table(lines, 1, "vertices", "x y", float, "coordinate", finite)

    def in_range(ijk, text):
        return next((f"vertex index {v} out of range" for v in ijk if not 0 <= v < len(verts)), None)

    tris = _read_table(lines, 2 + len(verts), "triangles", "i j k", int, "vertex index", in_range)
    end = 3 + len(verts) + len(tris)
    for lineno, text in enumerate(lines[end:], end + 1):
        if text.strip(" \t") and not text.lstrip(" \t").startswith("#"):
            raise FormatError(f"unexpected content {text!r}", line=lineno)
    return Mesh(verts, tris)


def _ascii(token):
    """token, if it is spelt in printable ASCII without underscores as write_mesh
    writes numerals; int and float would also read "1_0" as 10, "\u0663" as 3
    and "1\\v" as 1."""
    if not (token.isascii() and token.isprintable()) or "_" in token:
        raise ValueError(f"not an ASCII numeral: {token!r}")
    return token


def _fields(text):
    """A line's fields, split at ASCII spaces and tabs alone (str.split also splits
    at U+00A0, \\x85, \\x1c-\\x1f, ...), which make no field at either end."""
    return [field for field in text.replace("\t", " ").split(" ") if field]


def _read_table(lines, start, keyword, fields, parse, what, invalid):
    """The (count, len(fields)) table of dtype parse whose '<keyword> <count>'
    line is lines[start]; the count is checked against the lines that follow
    before allocating.  Each row, in file order, is split, parsed (a ValueError
    is a bad what) and checked: invalid(values, text) is an error message or None."""
    if start >= len(lines):
        raise FormatError(f"unexpected end of file, expected '{keyword} <count>'", line=start + 1)
    text, rest = lines[start], len(lines) - start - 1
    parts = _fields(text)
    if len(parts) != 2 or parts[0] != keyword:
        raise FormatError(f"expected '{keyword} <count>', got {text!r}", line=start + 1)
    try:
        count = int(_ascii(parts[1]))
    except ValueError:
        raise FormatError(f"bad count in {text!r}", line=start + 1) from None
    if count < 0:
        raise FormatError(f"negative count in {text!r}", line=start + 1)
    if count > rest:
        message = f"unexpected end of file: line {start + 1} announces {count} {keyword}, {rest} lines follow"
        raise FormatError(message, line=len(lines) + 1)
    table = np.empty((count, len(fields.split())), dtype=parse)
    for row, (lineno, text) in zip(table, enumerate(lines[start + 1:start + 1 + count], start + 2)):
        parts = _fields(text)
        if len(parts) != len(row):
            raise FormatError(f"expected '{fields}', got {text!r}", line=lineno)
        try:
            values = [parse(_ascii(p)) for p in parts]
        except ValueError:
            raise FormatError(f"bad {what} in {text!r}", line=lineno) from None
        message = invalid(values, text)
        if message:
            raise FormatError(message, line=lineno)
        row[:] = values
    return table
