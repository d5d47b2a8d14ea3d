"""Mesh generation, topology, and the text file format."""

import hashlib
import math

import numpy as np
import pytest
import scipy.sparse as sp

from robinfem import (
    FormatError,
    InvalidParameter,
    Method,
    Mesh,
    NonManifoldMesh,
    Scheme,
    SolverConfig,
    SparseSystem,
    StudyConfig,
    UnsupportedOrder,
    build_dofmap,
    build_edge_topology,
    edge_rule,
    generate_disk_mesh,
    generate_square_mesh,
    level_mesh,
    read_mesh,
    refinement_sequence,
    run_convergence,
    solve,
    unit_disk,
    unit_square,
    write_mesh,
)


def euler_characteristic(mesh):
    n_edges = len(mesh.interior_edges) + len(mesh.boundary_edges)
    return mesh.n_vertices - n_edges + mesh.n_triangles


@pytest.mark.parametrize("rings", [2, 3, 4, 8])
def test_disk_mesh_counts(rings):
    mesh = generate_disk_mesh(rings)
    assert mesh.n_triangles == 6 * rings**2
    assert mesh.n_vertices == 1 + 3 * rings * (rings + 1)
    assert len(mesh.boundary_edges) == 6 * rings
    assert euler_characteristic(mesh) == 1


def test_disk_mesh_smallest_case():
    mesh = generate_disk_mesh(2)
    assert mesh.n_vertices == 19
    assert mesh.n_triangles == 24
    assert len(mesh.boundary_edges) == 12


@pytest.mark.parametrize("rings", [2, 4, 16])
def test_boundary_vertices_on_unit_circle(rings):
    mesh = generate_disk_mesh(rings)
    boundary_ids = np.unique(mesh.boundary_edges.vertex_ids)
    radii = np.hypot(*mesh.vertices[boundary_ids].T)
    assert np.max(np.abs(radii - 1.0)) <= 1e-15


@pytest.mark.parametrize("rings", [2, 4, 8, 16])
def test_disk_mesh_area(rings):
    mesh = generate_disk_mesh(rings)
    area = mesh.triangle_areas().sum()
    # inscribed polygon with 6*rings sides
    exact = 3 * rings * math.sin(math.pi / (3 * rings))
    assert abs(area - exact) < 1e-13
    assert math.pi - area <= 3 * mesh.h_max**2
    assert area < math.pi


@pytest.mark.parametrize("rings", [2, 4, 8, 16, 32])
def test_disk_mesh_shape_regularity(rings):
    mesh = generate_disk_mesh(rings)
    assert mesh.min_angle_degrees() >= 20.0
    assert np.all(mesh.triangle_areas() > 0.0)


def test_refinement_ladder_h_ratio():
    for domain in (unit_disk(), unit_square()):
        meshes = refinement_sequence(domain, 4)
        assert [m.level for m in meshes] == [0, 1, 2, 3]
        for coarse, fine in zip(meshes, meshes[1:]):
            ratio = coarse.h_max / fine.h_max
            assert 1.6 <= ratio <= 2.4


def test_square_mesh_counts():
    mesh = generate_square_mesh(1)
    assert mesh.n_vertices == 4
    assert mesh.n_triangles == 2
    assert len(mesh.interior_edges) == 1
    assert len(mesh.boundary_edges) == 4
    mesh3 = generate_square_mesh(3)
    assert mesh3.n_vertices == 16
    assert mesh3.n_triangles == 18
    assert abs(mesh3.h_max - math.sqrt(2.0) / 3) < 1e-15
    assert abs(mesh3.triangle_areas().sum() - 1.0) < 1e-14
    assert euler_characteristic(mesh3) == 1


def test_boundary_normals_point_outward():
    mesh = generate_square_mesh(2)
    edges = mesh.boundary_edges
    for pair, normal in zip(edges.vertex_ids, edges.normal):
        mid = mesh.vertices[pair].mean(axis=0)
        # each outward normal matches the side the edge lies on
        if abs(mid[1]) < 1e-14:
            np.testing.assert_allclose(normal, [0, -1], atol=1e-15)
        elif abs(mid[1] - 1) < 1e-14:
            np.testing.assert_allclose(normal, [0, 1], atol=1e-15)
        elif abs(mid[0]) < 1e-14:
            np.testing.assert_allclose(normal, [-1, 0], atol=1e-15)
        else:
            np.testing.assert_allclose(normal, [1, 0], atol=1e-15)


def test_disk_boundary_normals_radial_at_midpoint():
    mesh = generate_disk_mesh(4)
    edges = mesh.boundary_edges
    for pair, normal in zip(edges.vertex_ids, edges.normal):
        mid = mesh.vertices[pair].mean(axis=0)
        radial = mid / np.linalg.norm(mid)
        np.testing.assert_allclose(normal, radial, atol=1e-13)


def test_interior_edge_orientation():
    mesh = generate_square_mesh(1)
    edges = mesh.interior_edges
    assert edges.vertex_ids.tolist() == [[0, 3]]
    assert edges.element_ids.tolist() == [[0, 1]]
    # normal points from element 0 into element 1
    np.testing.assert_allclose(edges.normal[0], [-1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)
    assert abs(edges.h_e[0] - math.sqrt(2.0)) < 1e-15


def test_edges_sorted_and_immutable():
    mesh = generate_disk_mesh(2)
    pairs = [tuple(p) for p in mesh.interior_edges.vertex_ids.tolist()]
    assert pairs == sorted(pairs)
    assert all(a < b for a, b in pairs)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 99.0
    arrays = [mesh.cell_edges, mesh.v0, mesh.B, mesh.det, mesh.invB] + [
        getattr(edges, name)
        for edges in (mesh.interior_edges, mesh.boundary_edges)
        for name in ("vertex_ids", "element_ids", "h_e", "normal")
    ]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 0


def reference_topology(vertices, triangles):
    """The edge topology by the dict walk the array tables replaced.

    Returns {"interior"|"boundary": {field: array}} and the (T, 3) P2
    midpoint dofs that the per-triangle rank lookup used to produce.
    """
    incident = {}
    for t, tri in enumerate(triangles):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            incident.setdefault((int(min(a, b)), int(max(a, b))), []).append(t)
    centroids = vertices[triangles].mean(axis=1)
    rows = {2: [], 1: []}
    for key in sorted(incident):
        owners = incident[key]
        va, vb = vertices[key[0]], vertices[key[1]]
        tang = vb - va
        h_e = float(np.hypot(tang[0], tang[1]))
        nrm = np.array([tang[1], -tang[0]]) / h_e
        target = centroids[owners[1]] if len(owners) == 2 else 0.5 * (va + vb)
        if np.dot(nrm, target - centroids[owners[0]]) < 0.0:
            nrm = -nrm
        rows[len(owners)].append((key, owners, h_e, nrm))
    tables = {}
    for kind, arity in (("interior", 2), ("boundary", 1)):
        keys, owners, h_e, nrm = zip(*rows[arity]) if rows[arity] else ((), (), (), ())
        tables[kind] = {
            "vertex_ids": np.array(keys, dtype=np.int64).reshape(-1, 2),
            "element_ids": np.array(owners, dtype=np.int64).reshape(-1, arity),
            "h_e": np.array(h_e, dtype=float),
            "normal": np.array(nrm, dtype=float).reshape(-1, 2),
        }
    ranks = {key: rank for rank, key in enumerate(sorted(incident))}
    midpoint_dofs = np.array(
        [
            [len(vertices) + ranks[(min(a, b), max(a, b))] for a, b in ((i, j), (j, k), (k, i))]
            for i, j, k in triangles.tolist()
        ],
        dtype=np.int64,
    ).reshape(-1, 3)
    return tables, midpoint_dofs


def reference_disk_arrays(rings):
    """The per-triangle loop the disk generator was first written with."""
    verts = [(0.0, 0.0)]
    ring_start = [0] * (rings + 1)
    for j in range(1, rings + 1):
        ring_start[j] = len(verts)
        count = 6 * j
        radius = j / rings
        theta = 2.0 * np.pi * np.arange(count) / count
        verts.extend(zip(radius * np.cos(theta), radius * np.sin(theta)))
    tris = []
    first = ring_start[1]
    for m in range(6):
        tris.append((0, first + m, first + (m + 1) % 6))
    for j in range(2, rings + 1):
        si, so = ring_start[j - 1], ring_start[j]
        ni, no = 6 * (j - 1), 6 * j
        for sector in range(6):
            outer = lambda m: so + (sector * j + m) % no
            inner = lambda m: si + (sector * (j - 1) + m) % ni
            for m in range(j):
                tris.append((outer(m), outer(m + 1), inner(m)))
            for m in range(j - 1):
                tris.append((inner(m), outer(m + 1), inner(m + 1)))
    return np.array(verts), np.array(tris)


def reference_square_arrays(n):
    """The per-cell loop the square generator was first written with."""
    coords = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords)
    verts = np.column_stack([xx.ravel(), yy.ravel()])
    tris = []
    for cy in range(n):
        for cx in range(n):
            v00 = cy * (n + 1) + cx
            v10, v01 = v00 + 1, v00 + n + 1
            v11 = v01 + 1
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return verts, np.array(tris)


@pytest.mark.parametrize(
    "generate, reference, size",
    [(generate_disk_mesh, reference_disk_arrays, rings) for rings in (2, 3, 9, 64)]
    + [(generate_square_mesh, reference_square_arrays, n) for n in (1, 2, 5)],
    ids=["disk2", "disk3", "disk9", "disk64", "square1", "square2", "square5"],
)
def test_generators_match_reference_loops(generate, reference, size):
    mesh = generate(size)
    verts, tris = reference(size)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.triangles, tris)


def shuffled_mesh(base, seed=0):
    """The same mesh with its triangle list permuted and each triangle rotated."""
    rng = np.random.default_rng(seed)
    tris = base.triangles[rng.permutation(base.n_triangles)]
    shifts = rng.integers(0, 3, len(tris))
    tris = np.array([np.roll(tri, s) for tri, s in zip(tris, shifts)])
    return Mesh(base.vertices, tris)


@pytest.mark.parametrize(
    "make_mesh",
    [
        lambda: generate_square_mesh(1),
        lambda: generate_square_mesh(5),
        lambda: generate_disk_mesh(2),
        lambda: generate_disk_mesh(9),
        lambda: shuffled_mesh(generate_square_mesh(5)),
        lambda: shuffled_mesh(generate_disk_mesh(9), seed=3),
    ],
    ids=["square1", "square5", "disk2", "disk9", "square5-shuffled", "disk9-shuffled"],
)
def test_edge_tables_match_reference_walk(make_mesh):
    mesh = make_mesh()
    tables, midpoint_dofs = reference_topology(np.asarray(mesh.vertices), np.asarray(mesh.triangles))
    for kind in ("interior", "boundary"):
        edges = getattr(mesh, f"{kind}_edges")
        assert len(edges) == len(tables[kind]["h_e"])
        for name, want in tables[kind].items():
            got = getattr(edges, name)
            assert got.dtype == want.dtype, (kind, name)
            assert np.array_equal(got, want), (kind, name)
    assert mesh.cell_edges.shape == (mesh.n_triangles, 3)
    dofmap = build_dofmap(mesh, 2, continuous=True)
    assert np.array_equal(dofmap.cell_dofs[:, 3:], mesh.n_vertices + mesh.cell_edges)
    assert np.array_equal(dofmap.cell_dofs[:, 3:], midpoint_dofs)


def test_single_triangle_mesh():
    verts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    mesh = Mesh(verts, np.array([[0, 1, 2]]))
    assert len(mesh.interior_edges) == 0
    assert not mesh.interior_edges
    assert mesh.interior_edges.element_ids.shape == (0, 2)
    assert len(mesh.boundary_edges) == 3
    assert mesh.h_max == 5.0
    assert mesh.cell_edges.tolist() == [[0, 2, 1]]


def test_mesh_validation():
    with pytest.raises(InvalidParameter):
        generate_disk_mesh(1)
    with pytest.raises(InvalidParameter):
        generate_square_mesh(0)
    with pytest.raises(InvalidParameter):
        refinement_sequence(unit_disk(), 1)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidParameter):
        Mesh(verts, np.array([[0, 2, 1]]))  # clockwise, negative area
    with pytest.raises(InvalidParameter):
        Mesh(verts.ravel(), np.array([[0, 1, 2]]))
    with pytest.raises(InvalidParameter, match=r"triangles must have shape \(n, 3\)"):
        Mesh(verts, np.array([0, 1, 2]))


@pytest.mark.parametrize(
    "triangles, message",
    [
        ([[0, 1, 5]], r"triangle 0 \[0, 1, 5\] has a vertex index outside 0\.\.3"),
        # -2 would wrap to vertex 2 and split the interior edge 1-2 in two
        ([[0, 1, 2], [1, 3, -2]], r"triangle 1 \[1, 3, -2\] has a vertex index outside 0\.\.3"),
        ([[0, 1, 2], [1, 3, 2.7]], "vertex indices must be integers"),
    ],
    ids=["too large", "negative", "fractional"],
)
def test_bad_vertex_indices_are_rejected(triangles, message):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(InvalidParameter, match=message):
        Mesh(verts, triangles)


def test_mesh_without_triangles_is_invalid(tmp_path):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidParameter, match="no triangles"):
        Mesh(verts, np.empty((0, 3), dtype=np.int64))
    path = tmp_path / "empty.mesh"
    path.write_text("meshfmt 1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 0\n")
    with pytest.raises(InvalidParameter, match="no triangles"):
        read_mesh(path)


def test_mesh_with_unused_vertex_is_invalid(tmp_path):
    # a vertex that no triangle uses would give the continuous schemes a
    # zero matrix row, which the solver reports as an indefinite matrix
    mesh = generate_square_mesh(2)
    with pytest.raises(InvalidParameter, match="vertex 9 belongs to no triangle"):
        Mesh(np.vstack([mesh.vertices, [[2.0, 2.0]]]), mesh.triangles)
    path = tmp_path / "extra.mesh"
    write_mesh(mesh, path)
    text = path.read_text().replace("vertices 9\n", "vertices 10\n")
    path.write_text(text.replace("triangles", "2 2\ntriangles"))
    with pytest.raises(InvalidParameter, match="vertex 9 belongs to no triangle"):
        read_mesh(path)


def test_non_manifold_detection():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]])
    tris = np.array([[0, 1, 2], [1, 3, 2], [0, 2, 4], [0, 1, 2]])
    with pytest.raises(NonManifoldMesh):
        Mesh(verts, tris)
    with pytest.raises(NonManifoldMesh):
        build_edge_topology(verts, tris)


def test_mesh_file_round_trip(tmp_path):
    mesh = generate_disk_mesh(3)
    path = tmp_path / "disk.mesh"
    write_mesh(mesh, path)
    clone = read_mesh(path)
    np.testing.assert_array_equal(mesh.vertices, clone.vertices)
    np.testing.assert_array_equal(mesh.triangles, clone.triangles)
    # rewriting the parsed mesh reproduces the file byte for byte
    path2 = tmp_path / "disk2.mesh"
    write_mesh(clone, path2)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == hashlib.sha256(
        path2.read_bytes()
    ).hexdigest()


def test_mesh_file_is_lf_only(tmp_path):
    path = tmp_path / "m.mesh"
    write_mesh(generate_square_mesh(1), path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.startswith(b"meshfmt 1\nvertices 4\n")
    assert raw.endswith(b"\n")


def test_read_mesh_accepts_trailing_comments(tmp_path):
    path = tmp_path / "m.mesh"
    write_mesh(generate_square_mesh(1), path)
    with open(path, "a", newline="\n") as fh:
        fh.write("# produced by a test\n\n")
    mesh = read_mesh(path)
    assert mesh.n_vertices == 4


@pytest.mark.parametrize(
    "mutate, bad_line",
    [
        (lambda L: ["meshfmt 2"] + L[1:], 1),
        (lambda L: [L[0], "vertices x"] + L[2:], 2),
        (lambda L: L[:2] + ["0.0 0.0 0.0"] + L[3:], 3),
        (lambda L: L[:2] + ["0.0 zzz"] + L[3:], 3),
        (lambda L: L[:6] + ["triangles -1"] + L[7:], 7),
        (lambda L: L[:7] + ["0 1 9"] + L[8:], 8),
        (lambda L: L + ["stray words"], 10),
        pytest.param(lambda L: L[:1], 2, id="no-vertices-line"),
        pytest.param(lambda L: L[:6], 7, id="no-triangles-line"),
        # rows are checked in file order: the first bad row is reported, not the malformed one after it
        pytest.param(lambda L: L[:4] + ["1 nan", "0.0 zzz"] + L[6:], 5, id="non-finite-then-malformed"),
        pytest.param(lambda L: L[:7] + ["0 1 9", "0 1"] + L[9:], 8, id="out-of-range-then-malformed"),
    ],
)
def test_read_mesh_reports_line_numbers(tmp_path, mutate, bad_line):
    path = tmp_path / "m.mesh"
    write_mesh(generate_square_mesh(1), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(mutate(lines)) + "\n")
    with pytest.raises(FormatError) as err:
        read_mesh(path)
    assert err.value.line == bad_line


def test_read_mesh_truncated_file(tmp_path):
    path = tmp_path / "m.mesh"
    path.write_text("meshfmt 1\nvertices 4\n0.0 0.0\n")
    with pytest.raises(FormatError) as err:
        read_mesh(path)
    assert err.value.line == 4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_are_rejected(tmp_path, bad):
    # a nan vertex passes the signed-area check (nan <= 0 is false) and
    # would only surface as a NaN residual deep inside the solve
    mesh = generate_square_mesh(1)
    verts = mesh.vertices.copy()
    verts[2, 1] = bad
    with pytest.raises(InvalidParameter, match="vertex 2 has a non-finite coordinate"):
        Mesh(verts, mesh.triangles)
    path = tmp_path / "m.mesh"
    write_mesh(mesh, path)
    lines = path.read_text().splitlines()
    lines[4] = f"1 {bad}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="non-finite") as err:
        read_mesh(path)
    assert err.value.line == 5


@pytest.mark.parametrize("keyword, line", [("vertices", 2), ("triangles", 7)])
def test_read_mesh_checks_counts_before_allocating(tmp_path, keyword, line):
    path = tmp_path / "m.mesh"
    write_mesh(generate_square_mesh(1), path)
    lines = path.read_text().splitlines()
    lines[line - 1] = f"{keyword} 99999999999999"  # 1.4 PiB as float64 pairs
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=f"line {line} announces 99999999999999 {keyword}") as err:
        read_mesh(path)
    assert err.value.line == len(lines) + 1


def test_overlapping_triangles_are_rejected():
    # vertex 3 sits on vertex 2, so both counterclockwise triangles lie on
    # the same side of their shared edge 0-1 and walk it the same way
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 1, 3]])
    with pytest.raises(NonManifoldMesh, match=r"edge \(0, 1\) is walked the same way"):
        build_edge_topology(verts, tris)
    with pytest.raises(NonManifoldMesh):
        Mesh(verts, tris)
    # the same pair glued along edge 0-1 from opposite sides is fine
    verts[3] = [0.5, -1.0]
    mesh = Mesh(verts, np.array([[0, 1, 2], [1, 0, 3]]))
    assert len(mesh.interior_edges) == 1


@pytest.mark.parametrize(
    "vertices",
    [
        [[0.0, 0.0], [1e300, 0.0], [0.0, 1e300]],  # the area overflows to inf
        [[0.0, 0.0], [1e308, 0.0], [-1e308, 1e-300]],  # area 5e7, side 1-2 overflows
    ],
    ids=["area", "side"],
)
def test_overflowing_coordinates_are_rejected(tmp_path, vertices):
    with pytest.raises(InvalidParameter, match="vertex 1 has a coordinate above 1e[+]150"):
        Mesh(vertices, [[0, 1, 2]])
    path = tmp_path / "m.mesh"
    text = "".join(f"{x!r} {y!r}\n" for x, y in vertices)
    path.write_text(f"meshfmt 1\nvertices 3\n{text}triangles 1\n0 1 2\n")
    with pytest.raises(InvalidParameter):
        read_mesh(path)


def test_a_triangle_too_thin_to_invert_is_rejected(tmp_path):
    # a positive but denormal area: the inverse Jacobian would overflow to inf
    path = tmp_path / "m.mesh"
    path.write_text("meshfmt 1\nvertices 4\n0 0\n1 0\n0 1\n1 1e-320\ntriangles 2\n0 1 3\n0 3 2\n")
    with pytest.raises(InvalidParameter, match="triangle 0 has area .*, too small to invert its map"):
        read_mesh(path)


def two_bad_rows(check):
    """(vertices, triangles) that fail one Mesh check in two rows."""
    mesh = generate_square_mesh(3)
    verts, tris = mesh.vertices.copy(), mesh.triangles.copy()
    if check == "index":
        tris[4, 1], tris[11, 2] = 16, -1
    elif check == "finite":
        verts[5, 1], verts[9, 0] = math.inf, math.nan
    elif check == "size":  # the largest coordinate is named: here a tie, which goes to the first
        verts[5, 0], verts[9, 1] = -1e200, 1e200
    else:  # two positive areas too small to invert
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1e-320], [2.0, 0.0], [2.0, 1e-320]])
        tris = np.array([[0, 3, 2], [0, 1, 3], [1, 4, 5]])
    return verts, tris


@pytest.mark.parametrize(
    "check, message",
    [
        ("index", r"^triangle 4 \[2, 16, 7\] has a vertex index outside 0\.\.15$"),
        ("finite", "^vertex 5 has a non-finite coordinate$"),
        ("size", "^vertex 5 has a coordinate above 1e[+]150 in magnitude$"),
        ("invert", "^triangle 1 has area 5.000e-321, too small to invert its map$"),
    ],
    ids=["index", "finite", "size", "invert"],
)
def test_a_failing_mesh_check_names_the_first_bad_row(check, message):
    # each check tests the whole array first and looks for the row only when it fails
    with pytest.raises(InvalidParameter, match=message):
        Mesh(*two_bad_rows(check))


# every character but "\n" and "\r" at which str.splitlines breaks a line
@pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"], ids=repr)
def test_read_mesh_breaks_lines_only_at_newlines(tmp_path, char):
    mesh = generate_square_mesh(1)
    path = tmp_path / "m.mesh"
    write_mesh(mesh, path)
    lines = path.read_text().splitlines()
    # such a character ending the header is part of line 1, neither a line break nor
    # whitespace the reader strips (it strips ASCII spaces and tabs alone)
    path.write_text("\n".join([lines[0] + char] + lines[1:]) + "\n")
    with pytest.raises(FormatError, match="expected 'meshfmt 1'") as err:
        read_mesh(path)
    assert err.value.line == 1
    # two lines joined by one are one line, reported as line 1
    path.write_text("\n".join([lines[0] + char + lines[1]] + lines[2:]) + "\n")
    with pytest.raises(FormatError, match="expected 'meshfmt 1'") as err:
        read_mesh(path)
    assert err.value.line == 1
    # a row ending in one is a bad row, at its own line
    path.write_text("\n".join(lines[:2] + [lines[2] + char] + lines[3:]) + "\n")
    with pytest.raises(FormatError, match="bad coordinate") as err:
        read_mesh(path)
    assert err.value.line == 3
    # a line number after such a character, in a comment below the tables, still counts "\n" alone
    path.write_text("\n".join(lines + ["# note" + char + "0 1 9", "0 1 9"]) + "\n")
    with pytest.raises(FormatError, match="unexpected content '0 1 9'") as err:
        read_mesh(path)
    assert err.value.line == len(lines) + 2


def test_read_mesh_reads_crlf_files(tmp_path):
    mesh = generate_square_mesh(1)
    path = tmp_path / "m.mesh"
    write_mesh(mesh, path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    clone = read_mesh(path)
    assert np.array_equal(clone.vertices, mesh.vertices) and np.array_equal(clone.triangles, mesh.triangles)


@pytest.mark.parametrize("numeral", ["0_1", "\u0661", "\uff11"], ids=["underscore", "arabic-indic", "full-width"])
@pytest.mark.parametrize(
    "field, line, message",
    [("count", 2, "bad count"), ("coordinate", 4, "bad coordinate"), ("vertex index", 8, "bad vertex index")],
)
def test_read_mesh_reads_only_ascii_numerals(tmp_path, numeral, field, line, message):
    # int and float read each of these numerals as 1; write_mesh never writes them
    path = tmp_path / "m.mesh"
    write_mesh(generate_square_mesh(1), path)
    lines = path.read_text().splitlines()
    lines[line - 1] = {"count": f"vertices {numeral}", "coordinate": f"{numeral} 0", "vertex index": f"0 {numeral} 3"}[field]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match=message) as err:
        read_mesh(path)
    assert err.value.line == line


def test_read_mesh_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "m.mesh"
    path.write_bytes(b"meshfmt 1\nvertices 1\n\x80 0\n")
    with pytest.raises(FormatError, match="byte 21 is not UTF-8 text") as err:
        read_mesh(path)
    assert err.value.line == 3


@pytest.mark.parametrize("level", [-1, -3, 1.5, 2.0, "1"])
def test_level_mesh_rejects_a_level_that_is_not_a_nonnegative_integer(level):
    for domain in (unit_disk(), unit_square()):
        with pytest.raises(InvalidParameter, match="level"):
            level_mesh(domain, level)


@pytest.mark.parametrize("level", [-3, "x", 1.5, True], ids=repr)
def test_a_mesh_level_is_a_nonnegative_integer(level):
    # unchecked, the level went as given into ErrorReport.level and the study CSV
    verts, tris = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]])
    with pytest.raises(InvalidParameter, match="level must be a nonnegative integer"):
        Mesh(verts, tris, level=level)
    assert Mesh(verts, tris, level=np.int64(3)).level == 3


NON_INTEGER_COUNTS = {  # each a count argument that is not an integer
    "study levels": (InvalidParameter, lambda: run_convergence(StudyConfig("sinsin", Scheme(Method.NITSCHE), levels=2.5))),
    "cg iterations": (InvalidParameter, lambda: solve(
        SparseSystem(sp.identity(2, format="csr"), np.ones(2), None), SolverConfig(max_iterations=2.5))),
    "disk rings": (InvalidParameter, lambda: generate_disk_mesh(2.5)),
    "square grid": (InvalidParameter, lambda: generate_square_mesh(1.5)),
    "ladder levels": (InvalidParameter, lambda: refinement_sequence(unit_disk(), 2.5)),
    "edge rule order": (UnsupportedOrder, lambda: edge_rule(8.0)),
    "ladder level True": (InvalidParameter, lambda: level_mesh(unit_disk(), True)),
    "cg iterations True": (InvalidParameter, lambda: SolverConfig(max_iterations=True)),
    "degree 2.0": (InvalidParameter, lambda: Scheme(Method.NITSCHE, degree=2.0)),
    "degree True": (InvalidParameter, lambda: Scheme(Method.NITSCHE, degree=True)),
    "dof map degree 2.0": (InvalidParameter, lambda: build_dofmap(generate_disk_mesh(2), 2.0, True)),
    "dof map degree True": (InvalidParameter, lambda: build_dofmap(generate_disk_mesh(2), True, False)),
}


@pytest.mark.parametrize("name", list(NON_INTEGER_COUNTS))
def test_a_non_integer_count_is_a_typed_error(name):
    error, call = NON_INTEGER_COUNTS[name]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("degree, continuous", [(3, True), (3, False), (0, False), (0, True), (-1, True)])
def test_a_dof_map_has_degree_1_or_2(degree, continuous):
    with pytest.raises(InvalidParameter, match="degree must be the integer 1 or 2"):
        build_dofmap(generate_disk_mesh(2), degree, continuous)


@pytest.mark.parametrize("continuous", ["no", None, 1, 0, np.float64(1.0)], ids=repr)
def test_a_dof_map_flag_is_a_bool(continuous):
    # the flag was only tested for truth: "no" gave a continuous map and None a discontinuous one
    mesh = generate_disk_mesh(2)
    with pytest.raises(InvalidParameter, match="continuous must be a bool"):
        build_dofmap(mesh, 2, continuous)
    assert build_dofmap(mesh, 2, np.True_).n_dofs == build_dofmap(mesh, 2, True).n_dofs


_CORNERS = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
NOT_REAL_NUMBERS = {  # each an argument that is not a real number, or not an array of them
    "epsilon str": lambda: Scheme(Method.NITSCHE, epsilon="1"),
    "epsilon None": lambda: Scheme(Method.NITSCHE, epsilon=None),
    "epsilon complex": lambda: Scheme(Method.SIPDG, epsilon=1 + 0j),
    "epsilon True": lambda: Scheme(Method.NITSCHE, epsilon=True),
    "gamma str": lambda: Scheme(Method.NITSCHE, gamma="0.1"),
    "gamma complex": lambda: Scheme(Method.SIPDG, gamma=np.complex128(0.1)),
    "gamma True": lambda: Scheme(Method.NITSCHE, gamma=True),
    "vertices str": lambda: Mesh([["0", "0"], ["1", "0"], ["0", "1"]], [[0, 1, 2]]),
    "vertices ragged": lambda: Mesh([[0.0, 0.0], [1.0], [0.0, 1.0]], [[0, 1, 2]]),
    "vertices complex": lambda: Mesh(np.array(_CORNERS) + 1j, [[0, 1, 2]]),
    "triangles ragged": lambda: Mesh(_CORNERS, [[0, 1, 2], [0, 1]]),
    "matrix complex": lambda: solve((sp.identity(2, format="csr") * (1 + 1j), np.ones(2))),
    "dense matrix complex": lambda: solve((np.eye(2) * (1 + 1j), np.ones(2))),
    "rhs column": lambda: solve((sp.identity(2, format="csr"), np.ones((2, 1)))),
    "rhs object": lambda: solve((sp.identity(2, format="csr"), np.array([1.0, 2.0], dtype=object))),
    "rhs str": lambda: solve((sp.identity(2, format="csr"), np.array(["1", "2"]))),
    "rhs complex": lambda: solve((sp.identity(2, format="csr"), np.ones(2) + 1j)),
}


@pytest.mark.parametrize("name", list(NOT_REAL_NUMBERS))
def test_an_argument_that_is_not_real_is_a_typed_error(name):
    with pytest.raises(InvalidParameter):
        NOT_REAL_NUMBERS[name]()


# str.split also splits a row at each of these; write_mesh separates fields by one space
@pytest.mark.parametrize("char", ["\u00a0", "\u2003", "\x85", "\x1c", "\x1d", "\x1e", "\x1f"], ids=repr)
@pytest.mark.parametrize("line, row", [(2, "vertices{}4"), (4, "1{}0"), (8, "0{}1 3"), (9, "0 3 \v{}2")])
def test_read_mesh_splits_rows_only_at_spaces_and_tabs(tmp_path, char, line, row):
    path = tmp_path / "m.mesh"
    write_mesh(generate_square_mesh(1), path)
    lines = path.read_text().splitlines()
    # tabs and runs of blanks still separate fields
    path.write_text("\n".join(lines[:3] + [" 1\t 0\t"] + lines[4:]) + "\n")
    assert np.array_equal(read_mesh(path).vertices[1], [1.0, 0.0])
    # on line 9 a field starts with "\v", which int alone would strip
    lines[line - 1] = row.format(char)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_mesh(path)
    assert err.value.line == line
