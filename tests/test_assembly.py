"""Assembly checks against closed-form element matrices and identities."""

import dataclasses
import functools
import gc
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import robinfem.analysis
import robinfem.assembly
from robinfem import (
    DofMap,
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
    continuous_embedding,
    dof_points,
    energy_error,
    error_report,
    generate_disk_mesh,
    generate_square_mesh,
    get_problem,
    interpolate,
    l2_error,
    level_mesh,
    min_eigenvalue_dense,
    norm_matrix,
    reference_basis,
    refinement_sequence,
    robin_weights,
    skin_diagnostics,
    solve,
    triangle_rule,
    unit_disk,
    write_matrix,
    write_mesh,
)

from robinfem.assembly import (
    _CLASSES,
    _MEMO,
    _assembly_space,
    _edge_facts,
    _edge_part,
    _edge_tables,
    _norm_form,
    _penalty_form,
    _robin_form,
    _volume_part,
)

from oracles import consistency_residual, edge_classes, triplet_pattern

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


def test_robin_weights_stay_finite_at_the_largest_epsilon():
    # eps*gamma*h_E overflows here, eps*c1 does not
    h = np.array([1e-3, 0.1, 1.0])
    for gamma in (0.1, 10.0, 100.0):
        c1, c2, c3 = robin_weights(Scheme(NIT, epsilon=1e308, gamma=gamma), h)
        assert np.all(np.isfinite(c1)) and np.all(np.isfinite(c2)) and np.all(np.isfinite(c3))
        # c1 ~ gamma*h/eps is subnormal here, so it keeps about 12 digits
        np.testing.assert_allclose(c3, gamma * h, rtol=1e-11)


def test_scheme_rejects_an_overflowing_robin_weight():
    # with gamma = 0 the Robin weight is 1/eps, which overflows below ~5.6e-309
    with pytest.raises(InvalidParameter, match="overflows"):
        Scheme(NIT, epsilon=1e-320, gamma=0.0)
    assert math.isclose(robin_weights(Scheme(NIT, epsilon=1e-300, gamma=0.0), 0.5)[1], 1e300, rel_tol=1e-15)


def test_assemble_rejects_a_robin_weight_that_overflows_at_tiny_gamma():
    # gamma > 0 passes Scheme, but eps + gamma*h_E ~ 1e-311 and its inverse overflows
    scheme = Scheme(NIT, epsilon=1e-320, gamma=1e-310)
    data = get_problem("sinsin").make_data(scheme.epsilon)
    with pytest.raises(InvalidParameter, match="overflows"):
        assemble(generate_disk_mesh(4), scheme, data)
    # the interior penalty weight is 1/gamma
    with pytest.raises(InvalidParameter, match="1/gamma"):
        Scheme(DG, gamma=1e-310)


@pytest.mark.parametrize("h", [np.array([-1.0]), np.array([np.nan]), np.array([0.5, np.inf]), 0.0],
                         ids=["negative", "nan", "inf", "zero"])
def test_robin_weights_refuse_an_edge_length_that_is_not_positive_and_finite(h):
    # unchecked, these give negative, NaN or zero-length weights
    with pytest.raises(InvalidParameter, match="h_E must be positive and finite"):
        robin_weights(Scheme(NIT), h)


def test_robin_weights_take_any_array_of_reals():
    # unconverted, a list raised a bare TypeError and a str numpy's UFuncTypeError
    scheme = Scheme(NIT, epsilon=0.5, gamma=0.1)
    for got, want in zip(robin_weights(scheme, [0.5, 0.25]), robin_weights(scheme, np.array([0.5, 0.25]))):
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
    for h in ("0.5", ["0.5", "0.25"], None, [0.5, 1j]):
        with pytest.raises(InvalidParameter, match="h_E must be real"):
            robin_weights(scheme, h)


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
    with pytest.raises(InvalidParameter, match="unknown method"):
        Scheme("nitsche")
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


def rotated(mesh, seed=0):
    """mesh with each triangle's vertex order rotated at random, and the shifts."""
    shifts = np.random.default_rng(seed).integers(0, 3, mesh.n_triangles)
    return Mesh(mesh.vertices, [np.roll(tri, s) for tri, s in zip(mesh.triangles, shifts)]), shifts


def discontinuous_dofs_before_rotation(shifts, degree):
    """For every dof of a discontinuous space on the rotated mesh, the same dof
    before: local vertex j was vertex (j - s) % 3, and the midpoint of local
    edge (j, j + 1) follows that edge."""
    local = np.arange(3 * degree)
    before = np.where(local < 3, (local - shifts[:, None]) % 3, 3 + (local - 3 - shifts[:, None]) % 3)
    return (3 * degree * np.arange(len(shifts))[:, None] + before).ravel()


@pytest.mark.parametrize("method", [NIT, DG])
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("eps", [1e-6, 1.0, 1e3])
def test_forms_are_invariant_under_rotated_vertex_orders(method, degree, eps):
    mesh = generate_disk_mesh(9)
    turned, shifts = rotated(mesh)
    # two counterclockwise triangles walk their shared edge in opposite directions, so of
    # the 36 interior class pairs the 18 with one forward and one backward side can occur
    assert len(_edge_facts(turned, turned.interior_edges)[0]) == 18
    scheme = Scheme(method, degree=degree, epsilon=eps, gamma=0.1)
    data = get_problem("sinsin").make_data(eps)
    before, after = assemble(mesh, scheme, data), assemble(turned, scheme, data)
    p = np.arange(before.dofmap.n_dofs) if method is NIT else discontinuous_dofs_before_rotation(shifts, degree)
    assert abs(after.matrix - before.matrix[p][:, p]).max() <= 1e-13 * abs(before.matrix).max()
    assert np.abs(after.rhs - before.rhs[p]).max() <= 1e-13 * np.abs(before.rhs).max()
    for variant in ("energy", "augmented"):
        gram, turned_gram = norm_matrix(mesh, scheme, variant), norm_matrix(turned, scheme, variant)
        assert abs(turned_gram - gram[p][:, p]).max() <= 1e-13 * abs(gram).max()
    if eps >= 1.0:
        # at eps = 1e-6 the defect cancels terms up to ~1e10 times its size, so
        # summation order alone moves it by up to ~1e-10 relative
        residual = consistency_residual(mesh, scheme, data)
        assert abs(consistency_residual(turned, scheme, data) - residual) <= 1e-13 * residual


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
    mesh = generate_disk_mesh(3)
    ref = np.vstack([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], triangle_rule(6).points])
    x = mesh.physical_points(ref)
    assert x.shape == (mesh.n_triangles, len(ref), 2)
    # the reference corners land on the triangle's own vertices
    np.testing.assert_allclose(x[:, :3], mesh.vertices[mesh.triangles], rtol=0, atol=1e-15)
    # v0 + B xi, written out entry by entry
    for t in range(mesh.n_triangles):
        (x0, y0), (x1, y1), (x2, y2) = mesh.vertices[mesh.triangles[t]]
        for q, (xi, eta) in enumerate(ref):
            expected = [x0 + (x1 - x0) * xi + (x2 - x0) * eta, y0 + (y1 - y0) * xi + (y2 - y0) * eta]
            np.testing.assert_allclose(x[t, q], expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("degree", [1, 2])
def test_edge_matrices_map_no_rule_points(monkeypatch, degree):
    # only the data integrals (loads, error norms) evaluate anything at the edge rule points
    def refuse(self, edges, params):
        raise AssertionError("an edge matrix mapped rule points")

    monkeypatch.setattr(Mesh, "edge_points", refuse)
    mesh, basis = generate_disk_mesh(6), reference_basis(degree)
    scheme = Scheme(DG, degree=degree, epsilon=0.5)
    dofmap = build_dofmap(mesh, degree, continuous=False)
    for matrix in (assemble_nitsche_boundary(mesh, dofmap, basis, scheme),
                   assemble_interior_penalty(mesh, dofmap, basis, scheme),
                   norm_matrix(mesh, scheme, "energy"), norm_matrix(mesh, scheme, "augmented")):
        assert matrix.shape == (dofmap.n_dofs, dofmap.n_dofs) and matrix.nnz > 0
    with pytest.raises(AssertionError, match="mapped rule points"):
        assemble_load(mesh, dofmap, basis, scheme, get_problem("sinsin").make_data(0.5))


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
        system = assemble(mesh, scheme, data)
        assert_systems_bitwise_equal(system, assemble(fresh_copy(mesh), scheme, data))
        for variant in ("energy", "augmented"):
            used, fresh = norm_matrix(mesh, scheme, variant=variant), norm_matrix(fresh_copy(mesh), scheme, variant=variant)
            for name in ("data", "indices", "indptr"):
                a, b = getattr(used, name), getattr(fresh, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (variant, name)
            # the Gram matrix of the norm sits on the system's pattern
            assert np.array_equal(used.indices, system.matrix.indices), variant
            assert np.array_equal(used.indptr, system.matrix.indptr), variant
        assert consistency_residual(mesh, scheme, data) == consistency_residual(fresh_copy(mesh), scheme, data)


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
    gc.collect()
    mesh = generate_disk_mesh(3)
    before = len(_MEMO)
    system = assemble(mesh, Scheme(NIT, degree=2), get_problem("sinsin").make_data(1.0))
    assert len(_MEMO) == before + 1
    mesh_ref, dofmap_ref = weakref.ref(mesh), weakref.ref(system.dofmap)
    del mesh, system
    gc.collect()
    assert mesh_ref() is None and dofmap_ref() is None
    assert len(_MEMO) == before


@pytest.mark.parametrize("degree", [1, 2])
def test_the_sipdg_memo_keeps_one_slot_per_edge_block(degree):
    # a boundary edge couples one element block, an interior edge the 4 of its two elements;
    # no slot is kept per dof triplet
    mesh = generate_disk_mesh(8)
    edge_slots = _assembly_space(mesh, Scheme(DG, degree=degree))[4]
    assert edge_slots.shape == (len(mesh.boundary_edges) + 4 * len(mesh.interior_edges),)


def _warm_peak_over_matrix(degree):
    """The tracemalloc peak of a warm SIPDG level-2 assemble over the bytes of the matrix it returns."""
    mesh, scheme, data = level_mesh(unit_disk(), 2), Scheme(DG, degree=degree), get_problem("sinsin").make_data(1.0)
    assemble(mesh, scheme, data)  # builds the memoized space
    tracemalloc.start()
    try:
        matrix = assemble(mesh, scheme, data).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)


def test_a_warm_sipdg_p2_assemble_peaks_at_most_2_4_times_its_matrix():
    # _matrix frees the edge blocks before the conversion to CSR: 1.98x; kept alive through it, 2.74x
    assert _warm_peak_over_matrix(2) <= 2.4


def test_a_warm_sipdg_p1_assemble_peaks_at_most_2_5_times_its_matrix():
    # _edge_part forms W = A^T C A one class group at a time: 2.01x; for the whole table at once, 2.83x
    assert _warm_peak_over_matrix(1) <= 2.5


def _scheme_calls():
    """Each public function that takes a scheme, given scheme."""
    mesh, data = generate_disk_mesh(3), get_problem("sinsin").make_data(1.0)
    p1, dg1 = reference_basis(1), build_dofmap(mesh, 1, continuous=False)
    solution = np.zeros(dg1.n_dofs)
    return {
        "robin_weights": lambda scheme: robin_weights(scheme, 0.5),
        "assemble": lambda scheme: assemble(mesh, scheme, data),
        "norm_matrix": lambda scheme: norm_matrix(mesh, scheme),
        "assemble_nitsche_boundary": lambda scheme: assemble_nitsche_boundary(mesh, dg1, p1, scheme),
        "assemble_interior_penalty": lambda scheme: assemble_interior_penalty(mesh, dg1, p1, scheme),
        "assemble_load": lambda scheme: assemble_load(mesh, dg1, p1, scheme, data),
        "energy_error": lambda scheme: energy_error(mesh, scheme, data, solution, dg1),
        "error_report": lambda scheme: error_report(mesh, scheme, data, solution, dg1),
    }


@pytest.mark.parametrize("scheme", ["n", None, NIT], ids=["str", "None", "Method"])
@pytest.mark.parametrize("case", list(_scheme_calls()))
def test_a_scheme_that_is_not_a_scheme_is_rejected(case, scheme):
    # unchecked, each ends in an AttributeError on the missing field
    with pytest.raises(InvalidParameter, match="scheme must be a Scheme"):
        _scheme_calls()[case](scheme)


def _data_and_domain_calls():
    """Each public function that takes problem data or a domain, given value in its place, and the type it needs."""
    mesh, scheme = generate_disk_mesh(3), Scheme(DG, degree=1)
    p1, dg1 = reference_basis(1), build_dofmap(mesh, 1, continuous=False)
    solution = np.zeros(dg1.n_dofs)
    return {
        "assemble": (lambda data: assemble(mesh, scheme, data), "data must be a ProblemData"),
        "assemble_load": (lambda data: assemble_load(mesh, dg1, p1, scheme, data), "data must be a ProblemData"),
        "l2_error": (lambda data: l2_error(mesh, data, solution, dg1), "data must be a ProblemData"),
        "energy_error": (lambda data: energy_error(mesh, scheme, data, solution, dg1), "data must be a ProblemData"),
        "error_report": (lambda data: error_report(mesh, scheme, data, solution, dg1), "data must be a ProblemData"),
        "level_mesh": (lambda domain: level_mesh(domain, 1), "domain must be a Domain"),
        "refinement_sequence": (lambda domain: refinement_sequence(domain, 2), "domain must be a Domain"),
        "skin_diagnostics": (lambda domain: skin_diagnostics(domain, mesh), "domain must be a Domain"),
    }


@pytest.mark.parametrize("value", ["unit_disk", None], ids=["str", "None"])
@pytest.mark.parametrize("case", list(_data_and_domain_calls()))
def test_data_or_a_domain_of_the_wrong_type_is_rejected(case, value):
    # unchecked, each ends in an AttributeError on the missing field
    call, message = _data_and_domain_calls()[case]
    with pytest.raises(InvalidParameter, match=message):
        call(value)


@pytest.mark.parametrize("field", ["f", "u0", "g"])
def test_problem_data_that_is_not_callable_is_rejected(field):
    # unchecked, assemble built the matrix and then raised TypeError: 'NoneType' object is not callable
    mesh, data = generate_disk_mesh(2), get_problem("sinsin").make_data(1.0)
    for value in (None, 1.0):
        with pytest.raises(InvalidParameter, match="problem data must be callable"):
            assemble(mesh, Scheme(NIT, degree=1), dataclasses.replace(data, **{field: value}))


def _dofmap_and_basis_calls():
    """Each public function that takes a dof map or a basis, given value in its place, the type it needs,
    and whether None stands for a default there."""
    mesh, scheme, data = generate_disk_mesh(3), Scheme(DG, degree=1), get_problem("sinsin").make_data(1.0)
    p1, dg1, cg1 = reference_basis(1), build_dofmap(mesh, 1, continuous=False), build_dofmap(mesh, 1, continuous=True)
    solution = np.zeros(dg1.n_dofs)
    return {
        "dof_points": (lambda d: dof_points(mesh, d), "DofMap", False),
        "interpolate": (lambda d: interpolate(mesh, d, lambda x, y: x), "DofMap", False),
        "continuous_embedding target": (lambda d: continuous_embedding(d, cg1), "DofMap", False),
        "continuous_embedding source": (lambda d: continuous_embedding(dg1, d), "DofMap", False),
        "assemble_volume": (lambda d: assemble_volume(mesh, d, p1), "DofMap", False),
        "assemble_nitsche_boundary": (lambda d: assemble_nitsche_boundary(mesh, d, p1, scheme), "DofMap", False),
        "assemble_interior_penalty": (lambda d: assemble_interior_penalty(mesh, d, p1, scheme), "DofMap", False),
        "assemble_load": (lambda d: assemble_load(mesh, d, p1, scheme, data), "DofMap", False),
        "l2_error": (lambda d: l2_error(mesh, data, solution, d), "DofMap", False),
        "energy_error": (lambda d: energy_error(mesh, scheme, data, solution, d), "DofMap", True),
        "error_report": (lambda d: error_report(mesh, scheme, data, solution, d), "DofMap", True),
        "assemble_volume basis": (lambda b: assemble_volume(mesh, dg1, b), "ReferenceBasis", False),
        "assemble_nitsche_boundary basis": (lambda b: assemble_nitsche_boundary(mesh, dg1, b, scheme), "ReferenceBasis", False),
        "assemble_interior_penalty basis": (lambda b: assemble_interior_penalty(mesh, dg1, b, scheme), "ReferenceBasis", False),
        "assemble_load basis": (lambda b: assemble_load(mesh, dg1, b, scheme, data), "ReferenceBasis", False),
    }


@pytest.mark.parametrize("case, value", [(case, value) for case, (_, _, defaults) in _dofmap_and_basis_calls().items()
                                          for value in ("x", None, "array") if value is not None or not defaults])
def test_a_dof_map_or_a_basis_of_the_wrong_type_is_rejected(case, value):
    # unchecked, each ends in an AttributeError on the missing field; "array" is the bare cell_dofs of the
    # dof map, or the nodes of the basis
    call, kind, _ = _dofmap_and_basis_calls()[case]
    if value == "array":
        value = build_dofmap(generate_disk_mesh(3), 1, False).cell_dofs if kind == "DofMap" else reference_basis(1).nodes
    with pytest.raises(InvalidParameter, match=f"must be a {kind}"):
        call(value)


def _mesh_calls(tmp="."):
    """Each public function that takes a mesh, given value in its place; write_mesh writes into tmp."""
    mesh, scheme, data = generate_disk_mesh(3), Scheme(DG, degree=1), get_problem("sinsin").make_data(1.0)
    p1, dg1 = reference_basis(1), build_dofmap(mesh, 1, continuous=False)
    solution = np.zeros(dg1.n_dofs)
    return {
        "build_dofmap": lambda m: build_dofmap(m, 1, True),
        "dof_points": lambda m: dof_points(m, dg1),
        "interpolate": lambda m: interpolate(m, dg1, lambda x, y: x),
        "assemble": lambda m: assemble(m, scheme, data),
        "norm_matrix": lambda m: norm_matrix(m, scheme),
        "assemble_volume": lambda m: assemble_volume(m, dg1, p1),
        "assemble_nitsche_boundary": lambda m: assemble_nitsche_boundary(m, dg1, p1, scheme),
        "assemble_interior_penalty": lambda m: assemble_interior_penalty(m, dg1, p1, scheme),
        "assemble_load": lambda m: assemble_load(m, dg1, p1, scheme, data),
        "l2_error": lambda m: l2_error(m, data, solution, dg1),
        "energy_error": lambda m: energy_error(m, scheme, data, solution, dg1),
        "error_report": lambda m: error_report(m, scheme, data, solution, None),
        "skin_diagnostics": lambda m: skin_diagnostics(unit_disk(), m),
        "write_mesh": lambda m: write_mesh(m, os.path.join(tmp, "rejected.mesh")),
    }


@pytest.mark.parametrize("value", ["m", None], ids=["str", "None"])
@pytest.mark.parametrize("case", list(_mesh_calls()))
def test_a_mesh_that_is_not_a_mesh_is_rejected(case, value, tmp_path):
    # unchecked, each ends in an AttributeError on the missing field, or assemble in a TypeError from the weak memo
    with pytest.raises(InvalidParameter, match="mesh must be a Mesh"):
        _mesh_calls(tmp_path)[case](value)
    assert not list(tmp_path.iterdir())


def _mismatched_space_calls():
    """Each form or error norm given pieces of two different spaces."""
    mesh, data = generate_disk_mesh(3), get_problem("sinsin").make_data(1.0)
    dg1, dg2 = Scheme(Method.SIPDG, degree=1), Scheme(Method.SIPDG, degree=2)
    p2, p1 = build_dofmap(mesh, 2, continuous=True), reference_basis(1)
    ring4 = build_dofmap(generate_disk_mesh(4), 1, continuous=False)
    dg_p1 = build_dofmap(mesh, 1, continuous=False)
    return {
        "volume P2 map P1 basis": lambda: assemble_volume(mesh, p2, p1),
        "boundary P2 map P1 basis": lambda: assemble_nitsche_boundary(mesh, p2, p1, dg1),
        "load P2 map P1 basis": lambda: assemble_load(mesh, p2, p1, dg1, data),
        "interior penalty P2 map P1 basis": lambda: assemble_interior_penalty(mesh, p2, p1, dg1),
        "interior penalty 4-ring map": lambda: assemble_interior_penalty(mesh, ring4, p1, dg1),
        "energy error P1 map P2 scheme": lambda: energy_error(mesh, dg2, data, np.zeros(dg_p1.n_dofs), dofmap=dg_p1),
        "l2 error 4-ring map": lambda: l2_error(mesh, data, np.zeros(ring4.n_dofs), ring4),
    }


@pytest.mark.parametrize("case", list(_mismatched_space_calls()))
def test_pieces_of_different_spaces_are_rejected(case):
    # unchecked, each ends in a numpy shape error or, with the 4-ring map, a matrix of the wrong size
    with pytest.raises(InvalidParameter, match="the dof map has"):
        _mismatched_space_calls()[case]()


def _dof_level_matrix(dofmap, parts, volume=None):
    """(data, indices, indptr) of the (dofs, blocks) parts on the CSR pattern of
    one sort of their dof triplets, as the pattern was built before it sorted
    blocks.  A volume part joins the sort, and its bincount is added after that
    of the parts, as _matrix adds the memoized volume."""
    slots, indices, indptr = triplet_pattern([d for d, _ in ([volume] if volume else []) + parts], dofmap.n_dofs)
    n = volume[1].size if volume else 0
    values = np.bincount(slots[n:], np.concatenate([b.ravel() for _, b in parts]), len(indices))
    if volume:
        values += np.bincount(slots[:n], volume[1].ravel(), len(indices))
    return values, indices, indptr


def assert_same_arrays(got, want, what):
    for name, a, b in zip(("data/slots", "indices", "indptr"), got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b), (what, name)


PATTERN_MESHES = {f"disk level {level}": functools.partial(level_mesh, unit_disk(), level) for level in range(4)}
PATTERN_MESHES["square"] = functools.partial(generate_square_mesh, 5)
PATTERN_CASES = {f"{name}-{degree}": (make_mesh, degree, (NIT, DG))
                 for name, make_mesh in PATTERN_MESHES.items() for degree in (1, 2)}
PATTERN_CASES["sipdg disk level 4-2"] = (functools.partial(level_mesh, unit_disk(), 4), 2, (DG,))  # nb = 6


@pytest.mark.parametrize("make_mesh, degree, methods", PATTERN_CASES.values(), ids=PATTERN_CASES.keys())
def test_element_block_pattern_equals_the_dof_triplet_sort(make_mesh, degree, methods):
    # every matrix, a block scatter onto BSR data that scipy converts to CSR, is bitwise the
    # bincount of its dof triplets onto the CSR pattern of one sort of those triplets
    mesh, basis = make_mesh(), reference_basis(degree)
    for method in methods:
        scheme = Scheme(method, degree=degree, epsilon=0.5)
        dofmap, tables = build_dofmap(mesh, degree, scheme.continuous), _edge_tables(mesh, method)
        volume = (dofmap.cell_dofs, _volume_part(mesh, basis)[1])

        def part(edges, coef):  # the blocks (E, k, k, nb, nb) over the pairs of an edge's dofs
            width = edges.element_ids.shape[1] * dofmap.cell_dofs.shape[1]  # explicit for an empty table
            dofs = dofmap.cell_dofs[edges.element_ids].reshape(len(edges), width)
            blocks = _edge_part(mesh, basis, edges, coef)[1]
            return dofs, blocks.transpose(0, 1, 3, 2, 4).reshape(len(dofs), dofs.shape[1], dofs.shape[1])

        def norm_part(edges, variant):  # the norm's diagonal coefficients, with exact zeros off it
            diag = _norm_form(scheme, edges, variant)
            coef = np.zeros(diag.shape + diag.shape[1:])
            coef[:, np.arange(diag.shape[1]), np.arange(diag.shape[1])] = diag
            return part(edges, coef)

        robin, penalty = _robin_form(scheme, tables[0]), _penalty_form(scheme, mesh.interior_edges)
        system = assemble(mesh, scheme, get_problem("sinsin").make_data(0.5))
        forms = {  # the forms on the space's pattern, with the volume
            "assemble": (system.matrix, [part(e, c) for e, c in zip(tables, (robin, penalty))]),
            **{f"{variant} norm": (norm_matrix(mesh, scheme, variant),
                                   [norm_part(e, variant) for e in tables])
               for variant in ("energy", "augmented")},
        }
        for name, (matrix, parts) in forms.items():
            assert isinstance(matrix, sp.csr_matrix) and matrix.has_sorted_indices, (method, name)
            got = (matrix.data, matrix.indices, matrix.indptr)
            assert_same_arrays(got, _dof_level_matrix(dofmap, parts, volume), (method, name))
        standalone = {  # each form on the pattern of its own triplets
            "volume": (assemble_volume(mesh, dofmap, basis), [volume]),
            "boundary": (assemble_nitsche_boundary(mesh, dofmap, basis, scheme), [part(tables[0], robin)]),
        }
        if method is DG:
            ip = assemble_interior_penalty(mesh, dofmap, basis, scheme)
            standalone["interior"] = (ip, [part(mesh.interior_edges, penalty)])
        for name, (matrix, parts) in standalone.items():
            assert_same_arrays((matrix.data, matrix.indices, matrix.indptr), _dof_level_matrix(dofmap, parts), (method, name))


@pytest.mark.parametrize("kind", ["boundary", "interior"])
def test_memoized_edge_classes_equal_a_fresh_search(kind):
    mesh = rotated(generate_disk_mesh(6))[0]
    edges = getattr(mesh, f"{kind}_edges")
    groups, lift = _edge_facts(mesh, edges)
    assert _edge_facts(mesh, edges)[0] is groups  # memoized
    classes = edge_classes(mesh, edges)
    want = 0
    for elems in edges.element_ids.T:
        a, b = (np.argmax(mesh.triangles[elems] == v[:, None], axis=1) for v in edges.vertex_ids.T)
        want = 6 * want + np.array([_CLASSES.index((int(i), int(j))) for i, j in zip(a, b)])
    assert np.array_equal(classes, want)
    assert [c for c, _ in groups] == sorted(set(classes.tolist()))
    for c, ids in groups:
        assert np.array_equal(ids, np.flatnonzero(classes == c))
    for array in [lift] + [ids for _, ids in groups]:
        assert not array.flags.writeable


def test_edge_facts_are_released_with_their_mesh():
    # the facts of both edge tables and the space share the mesh's one memo entry
    gc.collect()
    mesh = generate_disk_mesh(3)
    before = len(_MEMO)
    assemble(mesh, Scheme(DG, degree=1), get_problem("sinsin").make_data(1.0))
    assert len(_MEMO) == before + 1
    assert set(_MEMO[mesh]) == {mesh.boundary_edges, mesh.interior_edges, (1, DG)}
    mesh_ref = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert mesh_ref() is None and len(_MEMO) == before


def _scrambled_dofmaps(mesh, degree):
    """Discontinuous dof maps of the right size whose numbering is not element t's block t*nb .. t*nb + nb - 1."""
    blocked = build_dofmap(mesh, degree, continuous=False)
    nb, n = blocked.cell_dofs.shape[1], blocked.n_dofs
    return {
        "local order reversed": blocked.cell_dofs[:, ::-1].copy(),
        "elements reversed": blocked.cell_dofs[::-1].copy(),
        "node-major": np.arange(n).reshape(nb, -1).T.copy(),
        "one dof moved": np.where(blocked.cell_dofs == 0, n - 1, np.where(blocked.cell_dofs == n - 1, 0, blocked.cell_dofs)),
    }


@pytest.mark.parametrize("degree", [1, 2])
def test_a_discontinuous_map_in_another_numbering_is_rejected(degree):
    # each form would put its blocks where element t's blocks sit in the blocked numbering
    mesh, data = generate_disk_mesh(3), get_problem("sinsin").make_data(1.0)
    scheme, basis = Scheme(DG, degree=degree), reference_basis(degree)
    for name, cell_dofs in _scrambled_dofmaps(mesh, degree).items():
        dofmap = DofMap(False, degree, cell_dofs.size, cell_dofs)
        calls = {
            "volume": lambda: assemble_volume(mesh, dofmap, basis),
            "boundary": lambda: assemble_nitsche_boundary(mesh, dofmap, basis, scheme),
            "interior": lambda: assemble_interior_penalty(mesh, dofmap, basis, scheme),
            "load": lambda: assemble_load(mesh, dofmap, basis, scheme, data),
            "energy error": lambda: energy_error(mesh, scheme, data, np.zeros(dofmap.n_dofs), dofmap=dofmap),
        }
        for call, run in calls.items():
            with pytest.raises(InvalidParameter, match="does not number element t's nb dofs"):
                run()


def _renumbered_continuous_maps(mesh, degree):
    """Continuous dof maps of the right size, dtype and range whose numbering is not build_dofmap's."""
    own = build_dofmap(mesh, degree, continuous=True)
    swap = np.arange(own.n_dofs)
    swap[[0, -1]] = swap[[-1, 0]]
    return {
        "permuted": np.random.default_rng(degree).permutation(own.n_dofs)[own.cell_dofs],
        "first and last dof swapped": swap[own.cell_dofs],
    }


@pytest.mark.parametrize("degree", [1, 2])
def test_a_continuous_map_in_another_numbering_is_rejected(degree):
    # a continuous map is held to build_dofmap's numbering, though the incidence-product
    # pattern would hold for any numbering
    mesh, data = generate_disk_mesh(3), get_problem("sinsin").make_data(1.0)
    scheme, basis, n = Scheme(NIT, degree=degree), reference_basis(degree), build_dofmap(mesh, degree, True).n_dofs
    for name, cell_dofs in _renumbered_continuous_maps(mesh, degree).items():
        dofmap = DofMap(True, degree, n, cell_dofs)
        calls = {
            "volume": lambda: assemble_volume(mesh, dofmap, basis),
            "boundary": lambda: assemble_nitsche_boundary(mesh, dofmap, basis, scheme),
            "load": lambda: assemble_load(mesh, dofmap, basis, scheme, data),
            "l2 error": lambda: l2_error(mesh, data, np.zeros(n), dofmap),
            "energy error": lambda: energy_error(mesh, scheme, data, np.zeros(n), dofmap=dofmap),
        }
        for call, run in calls.items():
            with pytest.raises(InvalidParameter, match="does not number its dofs as build_dofmap does"):
                run()


@pytest.mark.parametrize("degree", [1, 2])
def test_interior_penalty_rejects_a_continuous_map(degree):
    # a continuous space's pattern couples no dofs across an edge that only the penalty would
    mesh = generate_disk_mesh(3)
    dofmap = build_dofmap(mesh, degree, continuous=True)
    with pytest.raises(SchemeMismatch, match="discontinuous dof map"):
        assemble_interior_penalty(mesh, dofmap, reference_basis(degree), Scheme(DG, degree=degree))


@pytest.mark.parametrize("cells", ["2 columns", "4 columns", "float"])
def test_a_dof_map_of_the_wrong_width_or_dtype_is_rejected(cells):
    # unchecked, the forms raised a bincount ValueError, a numpy UFuncTypeError or a
    # TypeError, l2_error and dof_points a shape ValueError or an IndexError
    mesh, data = generate_disk_mesh(2), get_problem("sinsin").make_data(1.0)
    good, basis, scheme = build_dofmap(mesh, 1, True), reference_basis(1), Scheme(NIT)
    cell_dofs = {"2 columns": good.cell_dofs[:, :2], "4 columns": good.cell_dofs[:, [0, 1, 2, 0]],
                 "float": good.cell_dofs.astype(float)}[cells]
    dofmap = DofMap(True, 1, good.n_dofs, cell_dofs)
    calls = {
        "volume": lambda: assemble_volume(mesh, dofmap, basis),
        "load": lambda: assemble_load(mesh, dofmap, basis, scheme, data),
        "l2 error": lambda: l2_error(mesh, data, np.zeros(dofmap.n_dofs), dofmap),
        "dof points": lambda: dof_points(mesh, dofmap),
        "interpolate": lambda: interpolate(mesh, dofmap, lambda x, y: x + y),
        "embedding": lambda: continuous_embedding(build_dofmap(mesh, 2, continuous=False), dofmap),
        "embedded into": lambda: continuous_embedding(DofMap(False, 1, good.n_dofs, cell_dofs), good),
    }
    for call, run in calls.items():
        with pytest.raises(InvalidParameter, match=r"cell_dofs must be an integer array of shape \(24, 3\)"):
            run()


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("shift", [5, -1], ids=["past the end", "negative"])
def test_a_continuous_map_with_dofs_out_of_range_is_rejected(degree, shift):
    # unchecked, a shift of 5 made assemble_load return 5 entries too many, assemble_volume
    # raise a scipy ValueError and l2_error an IndexError; a negative dof raised a ValueError
    # in the forms, and dof_points wrapped it round to the last dof
    mesh, data = generate_disk_mesh(3), get_problem("sinsin").make_data(1.0)
    scheme, basis, good = Scheme(NIT, degree=degree), reference_basis(degree), build_dofmap(mesh, degree, True)
    dofmap = DofMap(True, degree, good.n_dofs, good.cell_dofs + shift)
    calls = {
        "volume": lambda: assemble_volume(mesh, dofmap, basis),
        "boundary": lambda: assemble_nitsche_boundary(mesh, dofmap, basis, scheme),
        "load": lambda: assemble_load(mesh, dofmap, basis, scheme, data),
        "l2 error": lambda: l2_error(mesh, data, np.zeros(dofmap.n_dofs), dofmap),
        "energy error": lambda: energy_error(mesh, scheme, data, np.zeros(dofmap.n_dofs), dofmap=dofmap),
        "dof points": lambda: dof_points(mesh, dofmap),
        "interpolate": lambda: interpolate(mesh, dofmap, lambda x, y: x + y),
    }
    for call, run in calls.items():
        with pytest.raises(InvalidParameter, match=f"the dof map numbers a dof outside 0 .. {good.n_dofs - 1}"):
            run()


def count_dofmap_builds(monkeypatch):
    """A list that gains one entry per build_dofmap call made by assembly or analysis."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return build_dofmap(*args, **kwargs)

    for module in (robinfem.assembly, robinfem.analysis):
        monkeypatch.setattr(module, "build_dofmap", counted)
    return calls


def test_an_eps_sweep_case_builds_no_dof_map(monkeypatch):
    # the space's P2 map and the P1 map of its prolongation, once per mesh; every check of the map
    # that assemble returns, and the default map of the error norms, read it off the mesh's memo
    calls = count_dofmap_builds(monkeypatch)
    mesh, problem = generate_disk_mesh(4), get_problem("sinsin")
    counts = []
    for eps in (1e-3, 1.0, 1e3):
        scheme, data = Scheme(NIT, degree=2, epsilon=eps), problem.make_data(eps)
        system = assemble(mesh, scheme, data)
        solution = np.linspace(-1.0, 1.0, system.dofmap.n_dofs)
        report = error_report(mesh, scheme, data, solution, system.dofmap)
        assert energy_error(mesh, scheme, data, solution)[0] == report.err_energy
        counts.append(len(calls))
    assert counts == [2, 2, 2]


def test_the_memo_map_still_meets_the_other_checks(monkeypatch):
    mesh, data = generate_disk_mesh(4), get_problem("sinsin").make_data(1.0)
    scheme = Scheme(NIT, degree=2)
    own = assemble(mesh, scheme, data).dofmap
    other = assemble(generate_disk_mesh(5), scheme, data).dofmap
    zeros = np.zeros(own.n_dofs)
    with pytest.raises(InvalidParameter, match="the dof map has degree 2, the basis or scheme degree 1"):
        assemble_load(mesh, own, reference_basis(1), scheme, data)
    with pytest.raises(InvalidParameter, match="the dof map has degree 2, the basis or scheme degree 1"):
        error_report(mesh, Scheme(NIT), data, np.zeros(own.n_dofs), own)
    with pytest.raises(InvalidParameter, match=rf"the solution has shape \({own.n_dofs - 1},\)"):
        error_report(mesh, scheme, data, zeros[1:], own)
    with pytest.raises(InvalidParameter, match=f"the dof map has 150 cells, the mesh {mesh.n_triangles} triangles"):
        error_report(mesh, scheme, data, np.zeros(other.n_dofs), other)
    permuted = DofMap(True, 2, own.n_dofs, own.cell_dofs[::-1])
    with pytest.raises(InvalidParameter, match="does not number its dofs as build_dofmap does"):
        error_report(mesh, scheme, data, zeros, permuted)
    # an equal map that is not the memo's own is checked in full, and passes
    calls = count_dofmap_builds(monkeypatch)
    equal = DofMap(True, 2, own.n_dofs, own.cell_dofs.copy())
    assert error_report(mesh, scheme, data, zeros, equal) == error_report(mesh, scheme, data, zeros, own)
    assert calls == [(2, True)]
