"""Assembly checks against closed-form element matrices and identities."""

import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from robinfem import (
    InvalidParameter,
    IndefiniteMatrix,
    Method,
    ProblemData,
    Scheme,
    SchemeMismatch,
    Mesh,
    assemble,
    assemble_interior_penalty,
    assemble_load,
    assemble_nitsche_boundary,
    assemble_volume,
    build_dofmap,
    consistency_residual,
    continuous_embedding,
    dof_points,
    generate_disk_mesh,
    generate_square_mesh,
    get_problem,
    interpolate,
    min_eigenvalue_dense,
    reference_basis,
    robin_weights,
    solve,
    triangle_rule,
    write_matrix,
)

NIT = Method.NITSCHE
DG = Method.SIPDG


def reference_triangle_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh(verts, np.array([[0, 1, 2]]))


def zero_data():
    def zero(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    return ProblemData(f=zero, u0=zero, g=zero)


def test_p1_stiffness_single_triangle():
    mesh = reference_triangle_mesh()
    dm = build_dofmap(mesh, 1, continuous=True)
    K = assemble_volume(mesh, dm, reference_basis(1)).toarray()
    exact = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    np.testing.assert_allclose(K, exact, atol=1e-15)


@pytest.mark.parametrize("degree", [1, 2])
def test_stiffness_kernel_contains_constants(degree):
    mesh = generate_disk_mesh(3)
    dm = build_dofmap(mesh, degree, continuous=True)
    K = assemble_volume(mesh, dm, reference_basis(degree))
    ones = np.ones(dm.n_dofs)
    assert np.max(np.abs(K @ ones)) < 1e-13


@pytest.mark.parametrize("degree", [1, 2])
def test_stiffness_invariant_under_quadrature_order(degree):
    # P1/P2 stiffness integrands are degree 0/2: both rules are exact
    mesh = generate_disk_mesh(2)
    dm = build_dofmap(mesh, degree, continuous=True)
    basis = reference_basis(degree)
    K4 = assemble_volume(mesh, dm, basis, rule=triangle_rule(4)).toarray()
    K6 = assemble_volume(mesh, dm, basis, rule=triangle_rule(6)).toarray()
    np.testing.assert_allclose(K4, K6, atol=1e-13)


def test_robin_weight_identities():
    h = np.array([1e-3, 0.1, 1.0, 7.0])
    for eps in (1e-8, 1e-3, 1.0, 1e3, 1e8):
        for gamma in (0.0, 0.1, 1.0, 100.0):
            c1, c2, c3 = robin_weights(Scheme(NIT, epsilon=eps, gamma=gamma), h)
            # 1 - c1 cancels when c1 ~ 1, so compare at machine scale
            np.testing.assert_allclose(1.0 - c1, eps * c2, rtol=0.0, atol=5e-16)
            np.testing.assert_allclose(c3, eps * c1, rtol=5e-15)
            assert np.all((c1 >= 0) & (c1 < 1))
            assert np.all(np.isfinite(c2)) and np.all(c2 > 0)
            assert np.all(c3 < eps)


def test_robin_weights_gamma_zero():
    c1, c2, c3 = robin_weights(Scheme(NIT, epsilon=0.25, gamma=0.0), 0.5)
    assert c1 == 0.0
    assert c2 == 4.0
    assert c3 == 0.0


def test_gamma_zero_reduces_to_standard_robin():
    # with gamma = 0 the boundary form is (1/eps) times the boundary mass
    # matrix; for the reference triangle that matrix is known in closed form
    mesh = reference_triangle_mesh()
    dm = build_dofmap(mesh, 1, continuous=True)
    eps = 2.0
    B = assemble_nitsche_boundary(
        mesh, dm, reference_basis(1), Scheme(NIT, epsilon=eps, gamma=0.0)
    ).toarray()
    s = math.sqrt(2.0)
    mass = (
        np.array(
            [
                [4.0, 1.0, 1.0],
                [1.0, 2.0 + 2.0 * s, s],
                [1.0, s, 2.0 + 2.0 * s],
            ]
        )
        / 6.0
    )
    np.testing.assert_allclose(B, mass / eps, atol=1e-14)


def test_boundary_load_closed_form():
    # f = 0, u0 = U, g = 0, gamma = 0: rhs_i = (U/eps) * int_bdry phi_i
    mesh = reference_triangle_mesh()
    dm = build_dofmap(mesh, 1, continuous=True)
    eps, U = 0.5, 3.0

    def const_u0(x, y):
        return np.full_like(np.asarray(x, dtype=float), U)

    def zero(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    data = ProblemData(f=zero, u0=const_u0, g=zero)
    rhs = assemble_load(mesh, dm, reference_basis(1), Scheme(NIT, epsilon=eps, gamma=0.0), data)
    edge_integrals = np.array([1.0, (1.0 + math.sqrt(2.0)) / 2.0, (1.0 + math.sqrt(2.0)) / 2.0])
    np.testing.assert_allclose(rhs, (U / eps) * edge_integrals, rtol=1e-14)


def test_neumann_load_independent_of_epsilon():
    # f = 0, u0 = 0, g = G, gamma = 0: rhs_i = G * int_bdry phi_i for any eps
    mesh = reference_triangle_mesh()
    dm = build_dofmap(mesh, 1, continuous=True)
    G = -1.25

    def const_g(x, y):
        return np.full_like(np.asarray(x, dtype=float), G)

    def zero(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    data = ProblemData(f=zero, u0=zero, g=const_g)
    edge_integrals = np.array([1.0, (1.0 + math.sqrt(2.0)) / 2.0, (1.0 + math.sqrt(2.0)) / 2.0])
    for eps in (1e-3, 1.0, 1e3):
        rhs = assemble_load(mesh, dm, reference_basis(1), Scheme(NIT, epsilon=eps, gamma=0.0), data)
        np.testing.assert_allclose(rhs, G * edge_integrals, rtol=1e-13)


def test_volume_load_constant_source():
    mesh = reference_triangle_mesh()
    dm = build_dofmap(mesh, 1, continuous=True)

    def one(x, y):
        return np.ones_like(np.asarray(x, dtype=float))

    def zero(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    data = ProblemData(f=one, u0=zero, g=zero)
    rhs = assemble_load(mesh, dm, reference_basis(1), Scheme(NIT), data)
    # boundary data is zero, volume part is area/3 per vertex
    np.testing.assert_allclose(rhs, 1.0 / 6.0, rtol=1e-14)


def test_scheme_validation():
    with pytest.raises(InvalidParameter):
        Scheme(NIT, degree=3)
    with pytest.raises(InvalidParameter):
        Scheme(NIT, epsilon=0.0)
    with pytest.raises(InvalidParameter):
        Scheme(NIT, epsilon=float("inf"))
    with pytest.raises(InvalidParameter):
        Scheme(NIT, gamma=-0.1)
    with pytest.raises(InvalidParameter):
        Scheme(DG, gamma=0.0)
    assert Scheme(NIT, gamma=0.0).continuous
    assert not Scheme(DG).continuous


def test_interior_penalty_rejects_continuous_scheme():
    mesh = generate_square_mesh(1)
    scheme = Scheme(NIT)
    dm = build_dofmap(mesh, 1, continuous=True)
    with pytest.raises(SchemeMismatch):
        assemble_interior_penalty(mesh, dm, reference_basis(1), scheme)


@pytest.mark.parametrize("method", [NIT, DG])
@pytest.mark.parametrize("degree", [1, 2])
def test_assembled_matrix_is_symmetric(method, degree):
    mesh = generate_disk_mesh(2)
    for eps in (1e-3, 1.0, 1e3):
        for gamma in (0.01, 0.1):
            scheme = Scheme(method, degree=degree, epsilon=eps, gamma=gamma)
            system = assemble(mesh, scheme, get_problem("sinsin").make_data(eps))
            A = system.matrix
            assert abs(A - A.T).max() <= 1e-13 * abs(A).max()


@pytest.mark.parametrize("method", [NIT, DG])
def test_assembled_matrix_positive_definite_small_gamma(method):
    mesh = generate_square_mesh(2)
    scheme = Scheme(method, degree=1, epsilon=1.0, gamma=0.1)
    system = assemble(mesh, scheme, zero_data())
    assert min_eigenvalue_dense(system.matrix) > 0.0


@pytest.mark.parametrize("degree", [1, 2])
def test_continuous_vector_has_no_jump_energy(degree):
    rng = np.random.default_rng(17)
    mesh = generate_disk_mesh(3)
    scheme = Scheme(DG, degree=degree)
    dm_dg = build_dofmap(mesh, degree, continuous=False)
    dm_c = build_dofmap(mesh, degree, continuous=True)
    E = continuous_embedding(dm_dg, dm_c)
    J = assemble_interior_penalty(mesh, dm_dg, reference_basis(degree), scheme)
    chi = E @ rng.standard_normal(dm_c.n_dofs)
    K = assemble_volume(mesh, dm_dg, reference_basis(degree))
    assert abs(chi @ (J @ chi)) <= 1e-13 * abs(chi @ (K @ chi))


@pytest.mark.parametrize("degree", [1, 2])
def test_dg_matrix_restricted_to_continuous_space(degree):
    # embedding the continuous space into the broken one must reproduce
    # the continuous scheme exactly: jumps vanish and both schemes share
    # the volume and boundary forms
    mesh = generate_square_mesh(2)
    eps, gamma = 0.7, 0.1
    data = get_problem("linear_patch").make_data(eps)
    sys_dg = assemble(mesh, Scheme(DG, degree=degree, epsilon=eps, gamma=gamma), data)
    sys_n = assemble(mesh, Scheme(NIT, degree=degree, epsilon=eps, gamma=gamma), data)
    E = continuous_embedding(sys_dg.dofmap, sys_n.dofmap)
    restricted = (E.T @ sys_dg.matrix @ E).toarray()
    target = sys_n.matrix.toarray()
    assert np.max(np.abs(restricted - target)) <= 1e-12 * np.max(np.abs(target))
    np.testing.assert_allclose(E.T @ sys_dg.rhs, sys_n.rhs, atol=1e-13)


def _relabeled(mesh):
    # same triangles, new element order and rotated vertex order
    tris = [tuple(t) for t in mesh.triangles]
    rotated = [(t[2], t[0], t[1]) for t in reversed(tris)]
    return Mesh(mesh.vertices.copy(), np.array(rotated))


@pytest.mark.parametrize("degree", [1, 2])
def test_relabeling_invariance_continuous(degree):
    mesh_a = generate_square_mesh(2)
    mesh_b = _relabeled(mesh_a)
    scheme = Scheme(NIT, degree=degree, epsilon=0.3, gamma=0.1)
    data = get_problem("linear_patch").make_data(0.3)
    sys_a = assemble(mesh_a, scheme, data)
    sys_b = assemble(mesh_b, scheme, data)
    # continuous dofs are vertex/edge based, so the numbering is identical
    diff = abs(sys_a.matrix - sys_b.matrix).max()
    assert diff <= 1e-13 * abs(sys_a.matrix).max()
    np.testing.assert_allclose(sys_a.rhs, sys_b.rhs, atol=1e-13)


@pytest.mark.parametrize("degree", [1, 2])
def test_relabeling_invariance_broken(degree):
    mesh_a = generate_square_mesh(1)
    mesh_b = _relabeled(mesh_a)
    scheme = Scheme(DG, degree=degree, epsilon=0.3, gamma=0.1)
    data = get_problem("linear_patch").make_data(0.3)
    sys_a = assemble(mesh_a, scheme, data)
    sys_b = assemble(mesh_b, scheme, data)

    def keys(mesh, dofmap):
        # broken dofs are keyed by (element centroid, dof location)
        cents = mesh.vertices[mesh.triangles].mean(axis=1)
        pts = dof_points(mesh, dofmap)
        out = {}
        for t in range(mesh.n_triangles):
            for d in dofmap.cell_dofs[t]:
                key = tuple(np.round(np.concatenate([cents[t], pts[d]]), 12))
                out[key] = d
        return out

    ka, kb = keys(mesh_a, sys_a.dofmap), keys(mesh_b, sys_b.dofmap)
    perm = np.empty(sys_a.dofmap.n_dofs, dtype=int)
    for key, d_b in kb.items():
        perm[d_b] = ka[key]
    A = sys_a.matrix.toarray()
    B = sys_b.matrix.toarray()
    np.testing.assert_allclose(B, A[np.ix_(perm, perm)], atol=1e-13)
    np.testing.assert_allclose(sys_b.rhs, sys_a.rhs[perm], atol=1e-13)


@pytest.mark.parametrize("method", [NIT, DG])
@pytest.mark.parametrize("degree", [1, 2])
def test_consistency_residual_vanishes_on_exact_polygon(method, degree):
    # the square mesh fills its domain exactly, so inserting the analytic
    # solution into the discrete equations leaves only quadrature noise
    def u(x, y):
        return np.sin(x) * np.cosh(y)

    def grad(x, y):
        return np.stack([np.cos(x) * np.cosh(y), np.sin(x) * np.sinh(y)], axis=-1)

    def zero(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    eps = 0.4

    def u0(x, y):
        # nearest-side normal; boundary quadrature points sit on one side
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        side = np.argmin(np.stack([y, 1.0 - y, x, 1.0 - x]), axis=0)
        nx = np.where(side == 2, -1.0, np.where(side == 3, 1.0, 0.0))
        ny = np.where(side == 0, -1.0, np.where(side == 1, 1.0, 0.0))
        gx = grad(x, y)
        return u(x, y) + eps * (gx[..., 0] * nx + gx[..., 1] * ny)

    data = ProblemData(f=zero, u0=u0, g=zero, exact_u=u, exact_grad=grad)
    mesh = generate_square_mesh(4)
    res = consistency_residual(mesh, Scheme(method, degree=degree, epsilon=eps), data)
    assert res <= 1e-11


def test_consistency_residual_shrinks_with_boundary_skin():
    data = get_problem("sinsin").make_data(1.0)
    scheme = Scheme(NIT, degree=1, epsilon=1.0)
    res4 = consistency_residual(generate_disk_mesh(4), scheme, data)
    res8 = consistency_residual(generate_disk_mesh(8), scheme, data)
    assert res4 < 1e-2
    assert res8 < 0.6 * res4  # skin width scales like h^2


def test_write_matrix_round_trip(tmp_path):
    mesh = generate_square_mesh(2)
    system = assemble(mesh, Scheme(NIT), zero_data())
    path = tmp_path / "matrix.txt"
    write_matrix(system.matrix, path)
    rows, cols, vals = [], [], []
    for line in path.read_text().splitlines():
        i, j, v = line.split()
        rows.append(int(i))
        cols.append(int(j))
        vals.append(float(v))
    assert list(zip(rows, cols)) == sorted(zip(rows, cols))
    dense = np.zeros(system.matrix.shape)
    dense[rows, cols] = vals
    np.testing.assert_allclose(dense, system.matrix.toarray(), rtol=1e-15)


def test_robin_weight_arithmetic_pinned():
    # one boundary edge with h_E = 0.5 at the default parameters
    c1, c2, c3 = robin_weights(Scheme(NIT, epsilon=1.0, gamma=0.1), 0.5)
    assert math.isclose(c2, 1.0 / 1.05, rel_tol=1e-15)
    assert math.isclose(c1, 0.05 / 1.05, rel_tol=1e-15)
    assert math.isclose(c3, 0.05 / 1.05, rel_tol=1e-15)


def test_dirichlet_energy_of_interpolant_converges():
    # chi^T K chi against a per-triangle hand computation, and the
    # interpolant energy approaches the analytic Dirichlet energy
    def v(x, y):
        return np.sin(0.5 * np.pi * x)

    exact = np.pi**2 / 8.0  # integral of |grad v|^2 over the unit square

    def interpolant_energy(mesh):
        from robinfem import interpolate

        dm = build_dofmap(mesh, 1, continuous=True)
        chi = interpolate(mesh, dm, v)
        quad = assemble_volume(mesh, dm, reference_basis(1))
        discrete = float(chi @ (quad @ chi))
        # oracle: fit a + bx + cy per triangle, sum area * |(b, c)|^2
        oracle = 0.0
        for tri in mesh.triangles:
            pts = mesh.vertices[tri]
            coef = np.linalg.solve(
                np.column_stack([np.ones(3), pts]), chi[tri]
            )
            d1, d2 = pts[1] - pts[0], pts[2] - pts[0]
            area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
            oracle += area * (coef[1] ** 2 + coef[2] ** 2)
        assert math.isclose(discrete, oracle, rel_tol=1e-12)
        return discrete

    e1 = interpolant_energy(generate_square_mesh(1))
    e2 = interpolant_energy(generate_square_mesh(2))
    assert abs(e2 - exact) < abs(e1 - exact)


def test_interior_penalty_of_element_indicator():
    # chi = 1 on one element, 0 on the other: gradients vanish, the jump
    # is the constant 1 along the shared edge, so chi^T J chi = 1/gamma
    mesh = generate_square_mesh(1)
    gamma = 0.2
    dm = build_dofmap(mesh, 1, continuous=False)
    chi = np.zeros(dm.n_dofs)
    chi[dm.cell_dofs[0]] = 1.0
    J = assemble_interior_penalty(
        mesh, dm, reference_basis(1), Scheme(DG, gamma=gamma)
    )
    assert math.isclose(float(chi @ (J @ chi)), 1.0 / gamma, rel_tol=1e-13)


@pytest.mark.parametrize("method", [NIT, DG])
def test_consistency_residual_linear_solution(method):
    data = get_problem("linear_patch").make_data(0.7)
    scheme = Scheme(method, degree=1, epsilon=0.7)
    res = consistency_residual(generate_square_mesh(4), scheme, data)
    assert 0.0 <= res <= 1e-12


@pytest.mark.parametrize("method, degree", [(DG, 1), (DG, 2), (NIT, 2)])
def test_prolongation_interpolates_linear_functions(method, degree):
    mesh = generate_disk_mesh(8)
    system = assemble(mesh, Scheme(method, degree=degree), get_problem("sinsin").make_data(1.0))
    P = system.prolongation
    assert P.shape == (system.dofmap.n_dofs, mesh.n_vertices)

    def v(x, y):
        return 0.3 - 1.7 * x + 2.9 * y

    got = P @ v(mesh.vertices[:, 0], mesh.vertices[:, 1])
    np.testing.assert_allclose(got, interpolate(mesh, system.dofmap, v), rtol=0, atol=1e-14)
    np.testing.assert_array_equal(np.asarray(P.sum(axis=1)).ravel(), 1.0)


def test_prolongation_is_none_for_continuous_p1():
    mesh = generate_disk_mesh(8)
    system = assemble(mesh, Scheme(NIT, degree=1), get_problem("sinsin").make_data(1.0))
    assert system.prolongation is None


def touched_pairs(mesh, dofmap, method):
    """Every (row, col) pair a form couples, collected element by element."""
    pairs = set()
    groups = [[t] for t in range(mesh.n_triangles)]
    if method is DG:
        groups += [list(e) for e in mesh.interior_edges.element_ids]
    for elems in groups:
        dofs = [int(d) for t in elems for d in dofmap.cell_dofs[t]]
        pairs.update((a, b) for a in dofs for b in dofs)
    return pairs


@pytest.mark.parametrize("method", [NIT, DG])
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize(
    "make_mesh", [lambda: generate_disk_mesh(4), lambda: generate_square_mesh(3)], ids=["disk", "square"]
)
def test_assembled_pattern_is_structural_and_canonical(make_mesh, method, degree):
    mesh = make_mesh()
    scheme = Scheme(method, degree=degree, epsilon=0.5)
    A = assemble(mesh, scheme, get_problem("sinsin").make_data(0.5)).matrix
    n = A.shape[0]
    # canonical CSR: strictly increasing column indices within every row
    row_of = np.repeat(np.arange(n), np.diff(A.indptr))
    same_row = row_of[1:] == row_of[:-1]
    assert np.all(np.diff(A.indices)[same_row] > 0)
    # every touched pair is stored, exact-zero sums included, and nothing else
    pairs = touched_pairs(mesh, build_dofmap(mesh, degree, scheme.continuous), method)
    assert A.nnz == len(pairs)
    assert set(zip(row_of.tolist(), A.indices.tolist())) == pairs


@pytest.mark.parametrize("method", [NIT, DG])
@pytest.mark.parametrize("degree", [1, 2])
def test_assembled_matrix_is_sum_of_form_matrices(method, degree):
    mesh = generate_disk_mesh(5)
    scheme = Scheme(method, degree=degree, epsilon=0.5)
    A = assemble(mesh, scheme, get_problem("sinsin").make_data(0.5)).matrix
    dm = build_dofmap(mesh, degree, scheme.continuous)
    basis = reference_basis(degree)
    total = assemble_volume(mesh, dm, basis) + assemble_nitsche_boundary(mesh, dm, basis, scheme)
    if method is DG:
        total = total + assemble_interior_penalty(mesh, dm, basis, scheme)
    scale = abs(A).max()
    assert abs(A - total).max() <= 1e-13 * scale


@pytest.mark.parametrize("method", [NIT, DG])
def test_assembly_is_bitwise_repeatable(method):
    mesh = generate_disk_mesh(6)
    scheme = Scheme(method, degree=2, epsilon=1e-3)
    data = get_problem("sinsin").make_data(1e-3)
    first, second = assemble(mesh, scheme, data), assemble(mesh, scheme, data)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(first.matrix, name), getattr(second.matrix, name))
    assert np.array_equal(first.rhs, second.rhs)


def test_physical_points_are_the_affine_map():
    from robinfem.assembly import _Geometry

    mesh = generate_disk_mesh(3)
    geom = _Geometry(mesh)
    ref = np.vstack([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], triangle_rule(6).points])
    x = geom.physical_points(ref)
    assert x.shape == (mesh.n_triangles, len(ref), 2)
    # the reference corners land on the triangle's own vertices
    np.testing.assert_allclose(x[:, :3], mesh.vertices[mesh.triangles], rtol=0, atol=1e-15)
    # v0 + B xi, written out entry by entry
    for t in range(mesh.n_triangles):
        (x0, y0), (x1, y1), (x2, y2) = mesh.vertices[mesh.triangles[t]]
        for q, (xi, eta) in enumerate(ref):
            expected = [x0 + (x1 - x0) * xi + (x2 - x0) * eta, y0 + (y1 - y0) * xi + (y2 - y0) * eta]
            np.testing.assert_allclose(x[t, q], expected, rtol=0, atol=1e-15)


def test_write_matrix_leaves_its_argument_unchanged(tmp_path):
    # row 0 holds column 1, then column 0 twice: unsorted, with a duplicate
    data, indices, indptr = np.array([1.0, 2.0, 3.0]), np.array([1, 0, 0]), np.array([0, 3, 3])
    matrix = sp.csr_matrix((data, indices, indptr), shape=(2, 2))
    path = tmp_path / "matrix.txt"
    write_matrix(matrix, path)
    assert path.read_text() == "0 0 5\n0 1 1\n"
    assert matrix.indices.tolist() == [1, 0, 0]
    assert matrix.data.tolist() == [1.0, 2.0, 3.0]


SYSTEM_ARRAYS = {
    "data": lambda s: s.matrix.data,
    "indices": lambda s: s.matrix.indices,
    "indptr": lambda s: s.matrix.indptr,
    "rhs": lambda s: s.rhs,
    "prolongation.data": lambda s: s.prolongation.data,
    "prolongation.indices": lambda s: s.prolongation.indices,
    "prolongation.indptr": lambda s: s.prolongation.indptr,
    "cell_dofs": lambda s: s.dofmap.cell_dofs,
}


def assert_systems_bitwise_equal(first, second):
    assert (first.prolongation is None) == (second.prolongation is None)
    for name, get in SYSTEM_ARRAYS.items():
        if name.startswith("prolongation") and first.prolongation is None:
            continue
        a, b = get(first), get(second)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def fresh_copy(mesh):
    return Mesh(mesh.vertices, mesh.triangles)


@pytest.mark.parametrize("method", [NIT, DG])
@pytest.mark.parametrize("degree", [1, 2])
def test_assembly_on_a_used_mesh_equals_a_fresh_mesh(method, degree):
    mesh = generate_disk_mesh(4)
    # serve other (eps, gamma, method, degree) on the same mesh first
    for eps, gamma, other_method, other_degree in [(1e-6, 0.05, DG, 2), (1e3, 0.2, NIT, 1), (0.5, 0.1, DG, 1)]:
        assemble(mesh, Scheme(other_method, degree=other_degree, epsilon=eps, gamma=gamma),
                 get_problem("sinsin_flux").make_data(eps))
    for eps in (1e-6, 0.5, 1e3):
        scheme = Scheme(method, degree=degree, epsilon=eps, gamma=0.1)
        data = get_problem("sinsin_flux").make_data(eps)
        assert_systems_bitwise_equal(assemble(mesh, scheme, data), assemble(fresh_copy(mesh), scheme, data))


def _collapse_first_row(A):
    # every entry of row 0 in column indices[0]; sum_duplicates then compacts the arrays in place
    A.indices[A.indptr[0]:A.indptr[1]] = A.indices[A.indptr[0]]
    A.has_canonical_format = False
    A.sum_duplicates()


def _reverse_first_row(A):
    lo, hi = A.indptr[0], A.indptr[1]
    A.indices[lo:hi] = A.indices[lo:hi][::-1].copy()
    A.has_sorted_indices = False


def _zero_first_row(A):
    A.data[A.indptr[0]:A.indptr[1]] = 0.0


MUTATIONS = {  # each writes into the arrays of the returned system
    "matrix.data": lambda s, path: s.matrix.data.fill(-1.0),
    "matrix.indices": lambda s, path: s.matrix.indices.fill(0),
    "matrix.indptr": lambda s, path: s.matrix.indptr.fill(0),
    "sum_duplicates": lambda s, path: _collapse_first_row(s.matrix),
    "sort_indices": lambda s, path: (_reverse_first_row(s.matrix), s.matrix.sort_indices()),
    "eliminate_zeros": lambda s, path: (_zero_first_row(s.matrix), s.matrix.eliminate_zeros()),
    "write_matrix": lambda s, path: (_reverse_first_row(s.matrix), write_matrix(s.matrix, path)),
    "rhs": lambda s, path: s.rhs.fill(2.0),
    "prolongation.data": lambda s, path: s.prolongation.data.fill(7.0),
    "prolongation.indices": lambda s, path: s.prolongation.indices.fill(0),
}


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
@pytest.mark.parametrize("method, degree", [(NIT, 2), (DG, 1)])
def test_mutating_a_system_leaves_the_next_unchanged(mutate, method, degree, tmp_path):
    mesh = generate_disk_mesh(3)
    scheme = Scheme(method, degree=degree, epsilon=0.5)
    data = get_problem("sinsin").make_data(0.5)
    reference = assemble(fresh_copy(mesh), scheme, data)
    mutate(assemble(mesh, scheme, data), tmp_path / "matrix.txt")
    assert_systems_bitwise_equal(assemble(mesh, scheme, data), reference)


def test_shared_dof_map_is_read_only():
    system = assemble(generate_disk_mesh(3), Scheme(DG, degree=2), get_problem("sinsin").make_data(1.0))
    with pytest.raises(ValueError):
        system.dofmap.cell_dofs[0, 0] = 1


@pytest.mark.parametrize("method, degree", [(NIT, 1), (NIT, 2), (DG, 1), (DG, 2)])
def test_large_gamma_raises_after_a_solve_on_the_same_mesh(method, degree):
    mesh = generate_disk_mesh(4)
    data = get_problem("sinsin").make_data(1.0)
    solution, _ = solve(assemble(mesh, Scheme(method, degree=degree, epsilon=1.0, gamma=0.1), data))
    assert np.all(np.isfinite(solution))
    with pytest.raises(IndefiniteMatrix):
        solve(assemble(mesh, Scheme(method, degree=degree, epsilon=1.0, gamma=100.0), data))


def test_memo_entry_is_released_with_its_mesh():
    from robinfem.assembly import _SPACES

    gc.collect()
    mesh = generate_disk_mesh(3)
    before = len(_SPACES)
    system = assemble(mesh, Scheme(NIT, degree=2), get_problem("sinsin").make_data(1.0))
    assert len(_SPACES) == before + 1
    mesh_ref, dofmap_ref = weakref.ref(mesh), weakref.ref(system.dofmap)
    del mesh, system
    gc.collect()
    assert mesh_ref() is None and dofmap_ref() is None
    assert len(_SPACES) == before
