"""The per-element and per-point kernels against the generic numpy expressions
they replace (einsum, reductions and argmax over axes of length 2 or 3,
boolean-mask gathers, int64 division): every output equal, with no tolerance."""

import numpy as np
import pytest

from robinfem import (
    Mesh,
    build_dofmap,
    edge_rule,
    generate_disk_mesh,
    generate_square_mesh,
    get_problem,
    read_mesh,
    reference_basis,
    triangle_rule,
    write_mesh,
)
from robinfem.analysis import _volume_error_sq
from robinfem.assembly import _CLASSES, _cells, _edge_facts, _pattern, _sort, _volume_part
from robinfem.mesh import build_edge_topology


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


def sort_by_division(ids, n, nb):
    """_sort with its run starts from np.diff and its rows and columns from np.divmod."""
    ends = np.cumsum([0] + [d.shape[0] * d.shape[1] ** 2 for d in ids])
    keys = np.concatenate([(d[:, :, None] * n + d[:, None, :]).ravel() for d in ids])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.diff(keys, prepend=-1) != 0
    rows, cols = np.divmod(keys[first], n)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    itype = np.int32 if nb * max(n, nb * len(keys)) <= np.iinfo(np.int32).max else np.int64
    bslots = np.empty(len(order), dtype=itype)
    bslots[order] = nb * nb * (np.cumsum(first, dtype=itype) - 1)
    local = np.arange(nb * nb, dtype=itype).reshape(nb, 1, nb)
    slots = [bslots[a:b].reshape(len(d), d.shape[1], 1, d.shape[1], 1) + local for d, a, b in zip(ids, ends, ends[1:])]
    return np.concatenate([s.ravel() for s in slots]), cols.astype(itype), indptr.astype(itype)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("continuous", [True, False])
def test_sort_equals_the_division_form(mesh, degree, continuous):
    dofmap = build_dofmap(mesh, degree, continuous)
    nb = 1 if continuous else dofmap.cell_dofs.shape[1]
    blocks = dofmap.cell_dofs[:, ::nb] // nb
    parts = [_cells(mesh), mesh.boundary_edges.element_ids, mesh.interior_edges.element_ids]
    ids = [blocks[e].reshape(len(e), e.shape[1] * blocks.shape[1]) for e in parts]
    want = sort_by_division(ids, dofmap.n_dofs // nb, nb)
    got = _sort(ids, dofmap.n_dofs // nb, nb)
    assert all(same(g, w) for g, w in zip(got, want))
    assert all(same(g, w) for g, w in zip(_pattern(parts, dofmap), want))


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
    assert same(_edge_facts(mesh, edges)[0], want)



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
