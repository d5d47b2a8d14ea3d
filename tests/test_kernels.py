"""The per-element and per-point kernels against the generic numpy expressions
they replace (einsum, reductions and argmax over axes of length 2 or 3,
boolean-mask gathers, int64 division, a sort of all triplet keys, reduceat):
every output equal, with no tolerance."""

import numpy as np
import pytest
import scipy.sparse as sp

from robinfem import (
    Mesh,
    Method,
    Scheme,
    assemble,
    build_dofmap,
    edge_rule,
    generate_disk_mesh,
    generate_square_mesh,
    get_problem,
    level_mesh,
    read_mesh,
    reference_basis,
    triangle_rule,
    unit_disk,
    write_mesh,
)
from robinfem.analysis import _volume_error_sq
from robinfem.assembly import _CLASSES, _cells, _pattern, _volume_part
from robinfem.mesh import build_edge_topology
from robinfem.solver import _layout, _neighbour_max, _smoothed_aggregation, _tentative

from oracles import block_ids, edge_classes, tentative_by_reduceat, triplet_pattern


@pytest.fixture(
    scope="module",
    params=["disk0", "disk1", "disk2", "disk3", "square5", "permuted"],
)
def mesh(request, tmp_path_factory):
    """Disk ladder levels 0-3, the 5x5 square, and a level-2 disk with its
    triangles permuted and rotated, written and read back."""
    name = request.param
    if name.startswith("disk"):
        return generate_disk_mesh(4 * 2 ** int(name[4:]))
    if name == "square5":
        return generate_square_mesh(5)
    base, rng = generate_disk_mesh(16), np.random.default_rng(7)
    tris = base.triangles[rng.permutation(base.n_triangles)]
    tris = np.take_along_axis(tris, (np.arange(3) + rng.integers(0, 3, (len(tris), 1))) % 3, axis=1)
    path = tmp_path_factory.mktemp("permuted") / "disk.mesh"
    write_mesh(Mesh(base.vertices, tris), path)
    return read_mesh(path)


def same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("degree", [1, 2])
def test_volume_blocks_equal_the_einsum_geometry(mesh, degree):
    basis, nb = reference_basis(degree), reference_basis(degree).n_nodes
    rule = triangle_rule(4 if degree == 1 else 6)
    gref = basis.eval_grad(rule.points)
    k_ref = np.einsum("q,qia,qjb->abij", rule.weights, gref, gref)
    g_geo = np.einsum("t,tac,tbc->tab", mesh.det, mesh.invB, mesh.invB)
    want = (g_geo.reshape(-1, 4) @ k_ref.reshape(4, nb * nb)).reshape(-1, nb, nb)
    elements, blocks = _volume_part(mesh, basis)
    assert same(elements, np.arange(mesh.n_triangles)[:, None])
    assert same(blocks, want)


@pytest.mark.parametrize("degree", [1, 2])
def test_volume_errors_equal_the_summed_squares(mesh, degree):
    data = get_problem("radial_exp").make_data(1.0)
    dofmap = build_dofmap(mesh, degree, continuous=True)
    solution = np.random.default_rng(degree).standard_normal(dofmap.n_dofs)
    rule, basis = triangle_rule(6), reference_basis(degree)
    x = mesh.physical_points(rule.points)
    local = solution[dofmap.cell_dofs]
    grad = data.exact_grad(x[..., 0], x[..., 1]) - np.tensordot(local, basis.eval_grad(rule.points), (1, 1)) @ mesh.invB
    u = data.exact_u(x[..., 0], x[..., 1]) - local @ basis.eval(rule.points).T
    want = float(mesh.det @ (np.sum(grad * grad, axis=2) @ rule.weights)), float(mesh.det @ ((u * u) @ rule.weights))
    assert _volume_error_sq(mesh, data, solution, dofmap) == want


def part_sets(mesh, continuous):
    """{name: elements}: the parts of the space, and each form's own part alone."""
    parts = {"volume": _cells(mesh), "boundary": mesh.boundary_edges.element_ids}
    if not continuous:
        parts["interior"] = mesh.interior_edges.element_ids
    return {"space": list(parts.values()), **{name: [e] for name, e in parts.items()}}


def assert_patterns_equal_the_triplet_sort(mesh, degree, continuous):
    dofmap = build_dofmap(mesh, degree, continuous)
    nb = 1 if continuous else dofmap.cell_dofs.shape[1]
    for name, elements in part_sets(mesh, continuous).items():
        want = triplet_pattern(block_ids(dofmap, elements), dofmap.n_dofs // nb)
        assert all(same(g, w) for g, w in zip(_pattern(dofmap, elements), want)), name


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("continuous", [True, False])
def test_sort_equals_the_division_form(mesh, degree, continuous):
    # the pattern D^T D of the parts of a space and of each standalone form's one part, against
    # one sort of all their block triplet keys: the slot of every block, indices and indptr
    # equal, dtypes too
    assert_patterns_equal_the_triplet_sort(mesh, degree, continuous)


def test_pattern_of_a_mesh_without_interior_edges():
    mesh = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    for degree, continuous in ((1, True), (2, True), (1, False), (2, False)):
        assert_patterns_equal_the_triplet_sort(mesh, degree, continuous)


def topology_by_masks(verts, tris):
    """build_edge_topology's tables from boolean-mask gathers on (E, 2) tables."""
    tail, head = tris.ravel(), np.roll(tris, -1, axis=1).ravel()
    lo, hi = np.minimum(tail, head), np.maximum(tail, head)
    key = lo * len(verts) + hi
    order = np.argsort(key, kind="stable")
    is_first = np.ones(len(order), dtype=bool)
    is_first[1:] = np.diff(key[order]) != 0
    starts = np.flatnonzero(is_first)
    counts = np.diff(np.append(starts, len(order)))
    keys = np.column_stack([lo, hi])[order[starts]]
    inner = counts == 2
    ascending = (tail < head)[order]
    cell_edges = np.empty(len(order), dtype=np.int64)
    cell_edges[order] = np.cumsum(is_first) - 1
    owners = order // 3
    tang = verts[keys[:, 1]] - verts[keys[:, 0]]
    h_e = np.hypot(tang[:, 0], tang[:, 1])
    nrm = np.column_stack([tang[:, 1], -tang[:, 0]]) / h_e[:, None]
    nrm = np.where(ascending[starts, None], nrm, -nrm)
    elems = np.column_stack([owners[starts], owners[starts + inner]])
    interior = (keys[inner], elems[inner], h_e[inner], nrm[inner])
    boundary = (keys[~inner], elems[~inner, :1], h_e[~inner], nrm[~inner])
    return interior, boundary, cell_edges.reshape(-1, 3)


def test_edge_tables_equal_the_mask_gathers(mesh):
    want_interior, want_boundary, want_cells = topology_by_masks(mesh.vertices, mesh.triangles)
    interior, boundary, cell_edges = build_edge_topology(mesh.vertices, mesh.triangles)
    for table, want in ((interior, want_interior), (boundary, want_boundary), (mesh.interior_edges, want_interior),
                        (mesh.boundary_edges, want_boundary)):
        got = (table.vertex_ids, table.element_ids, table.h_e, table.normal)
        assert all(same(g, w) for g, w in zip(got, want))
    assert same(cell_edges, want_cells) and same(mesh.cell_edges, want_cells)


@pytest.mark.parametrize("kind", ["boundary", "interior"])
def test_edge_classes_equal_the_argmax_search(mesh, kind):
    edges = getattr(mesh, f"{kind}_edges")
    want = 0
    for elems in edges.element_ids.T:
        a, b = (np.argmax(mesh.triangles[elems] == v[:, None], axis=1) for v in edges.vertex_ids.T)
        want = len(_CLASSES) * want + 2 * a + b - (b > a)
    assert same(edge_classes(mesh, edges), want)



def edge_points_old(mesh, edges, s):
    """The edge rule-point maps that Mesh.edge_points replaces: the (q, E, 2)
    one of the assembly kernel and the (E, q, 2) one of skin_diagnostics."""
    pa, pb = mesh.vertices[edges.vertex_ids.T]
    return pa + s[:, None, None] * (pb - pa), pa[:, None, :] + s[None, :, None] * (pb - pa)[:, None, :]


@pytest.mark.parametrize("order", [4, 8])
@pytest.mark.parametrize("kind", ["boundary", "interior"])
def test_edge_points_equal_the_kernel_and_skin_maps(mesh, kind, order):
    edges, s = getattr(mesh, f"{kind}_edges"), edge_rule(order).points
    kernel, skin = edge_points_old(mesh, edges, s)
    got = mesh.edge_points(edges, s)
    assert got.shape == (len(s), len(edges), 2)
    assert same(got, kernel) and same(got, skin.transpose(1, 0, 2))


def test_edge_points_of_an_empty_table():
    mesh = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    s = edge_rule(8).points
    kernel, skin = edge_points_old(mesh, mesh.interior_edges, s)
    got = mesh.edge_points(mesh.interior_edges, s)
    assert got.shape == (len(s), 0, 2)
    assert same(got, kernel) and same(got, skin.transpose(1, 0, 2))


@pytest.fixture(scope="module")
def aggregation_matrices():
    """{name: CSR matrix}: the Nitsche P1 level-4 matrix, which the multilevel solve aggregates
    itself; the P1 Galerkin coarse matrix of the Nitsche P2 level-4 sweep; and a 6,000-dof matrix
    whose first row couples strongly to every dof."""
    mesh, data = level_mesh(unit_disk(), 4), get_problem("sinsin").make_data(1.0)
    system = assemble(mesh, Scheme(Method.NITSCHE, degree=2), data)
    p = system.prolongation
    n = 6000
    dense = sp.diags([-np.ones(n - 1), 2.5 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="lil")
    dense[0, :], dense[:, 0] = -1.0, -1.0
    dense[0, 0] = 50.0
    return {
        "nitsche p1 level 4": assemble(mesh, Scheme(Method.NITSCHE), data).matrix,
        "sweep p1 coarse": sp.csr_matrix(sp.csr_matrix(p.T) @ system.matrix @ p),
        "dense row": sp.csr_matrix(dense),
    }


@pytest.mark.parametrize("name", ["nitsche p1 level 4", "sweep p1 coarse", "dense row"])
def test_aggregation_equals_the_reduceat_form(aggregation_matrices, name):
    matrix = aggregation_matrices[name]
    diag = matrix.diagonal()
    want_t, want_w, want_p = tentative_by_reduceat(matrix, diag)
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    weight, prolongation = _smoothed_aggregation(matrix, diag)
    assert same(weight, want_w)
    for got, want in ((_tentative(matrix, diag, rows), want_t), (prolongation, want_p)):
        assert got.shape == want.shape
        assert all(same(getattr(got, f), getattr(want, f)) for f in ("data", "indices", "indptr"))


@pytest.mark.parametrize("name", ["nitsche p1 level 4", "sweep p1 coarse", "dense row"])
def test_neighbour_layout_is_linear_in_the_graph(aggregation_matrices, name):
    # the layout holds at most 3 nnz table entries and nnz long-row entries, so a dense row
    # costs its own length, and every neighbour maximum equals reduceat's
    matrix = aggregation_matrices[name]
    indices = matrix.indices.astype(np.intp)
    layout = _layout(indices, matrix.indptr[1:])
    table, long, long_indices, long_start = layout
    assert table.size <= 3 * len(indices) and long_indices.size <= len(indices)
    assert long.any() == (name == "dense row")
    values = np.random.default_rng(5).integers(0, 2**32, matrix.shape[0], dtype=np.uint32)
    want = np.maximum.reduceat(values[indices], matrix.indptr[:-1])
    assert same(_neighbour_max(layout, values), want)
    assert same(_neighbour_max(layout, values > 2**31), np.maximum.reduceat(values[indices] > 2**31, matrix.indptr[:-1]))
