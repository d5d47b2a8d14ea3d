"""Reference-element checks: quadrature, bases, dof maps."""

import math

import numpy as np
import pytest

from robinfem import (
    InvalidParameter,
    UnsupportedOrder,
    build_dofmap,
    continuous_embedding,
    dof_points,
    edge_rule,
    generate_disk_mesh,
    generate_square_mesh,
    interpolate,
    reference_basis,
    triangle_rule,
)


def triangle_moment(p, q):
    # closed form for the unit reference triangle
    return math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)


@pytest.mark.parametrize("order, npoints", [(2, 3), (4, 6), (6, 12)])
def test_triangle_rules_integrate_monomials(order, npoints):
    rule = triangle_rule(order)
    assert len(rule.points) == npoints
    assert rule.degree == order
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 0.5) < 1e-15
    x, y = rule.points[:, 0], rule.points[:, 1]
    assert np.all(x >= 0) and np.all(y >= 0) and np.all(x + y <= 1 + 1e-14)
    for p in range(order + 1):
        for q in range(order + 1 - p):
            got = np.sum(rule.weights * x**p * y**q)
            assert abs(got - triangle_moment(p, q)) < 1e-14, (p, q)


def test_triangle_rule_spot_value():
    rule = triangle_rule(4)
    x, y = rule.points[:, 0], rule.points[:, 1]
    assert abs(np.sum(rule.weights * x**2 * y**2) - 1.0 / 180.0) < 1e-16


@pytest.mark.parametrize("order, npoints", [(2, 2), (4, 3), (6, 4), (8, 5)])
def test_edge_rules_integrate_monomials(order, npoints):
    rule = edge_rule(order)
    assert len(rule.points) == npoints
    assert rule.degree == 2 * npoints - 1
    assert abs(rule.weights.sum() - 1.0) < 1e-15
    assert np.all((rule.points > 0) & (rule.points < 1))
    for k in range(rule.degree + 1):
        got = np.sum(rule.weights * rule.points**k)
        assert abs(got - 1.0 / (k + 1)) < 1e-14, k


@pytest.mark.parametrize(
    "make_rule, order", [(triangle_rule, 2), (triangle_rule, 6), (edge_rule, 4), (edge_rule, 8)]
)
def test_rules_are_built_once_and_read_only(make_rule, order):
    rule = make_rule(order)
    assert make_rule(order) is rule
    for array in (rule.points, rule.weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_unsupported_orders():
    # triangle_rule(4.0) returned the order-4 rule, where edge_rule(4.0) is refused
    for bad in (1, 3, 5, 8, 4.0, True, "4"):
        with pytest.raises(UnsupportedOrder):
            triangle_rule(bad)
    for bad in (1, 3, 10, 4.0, True, "4"):
        with pytest.raises(UnsupportedOrder):
            edge_rule(bad)


@pytest.mark.parametrize("degree", [1, 2])
def test_basis_kronecker_property(degree):
    basis = reference_basis(degree)
    vals = basis.eval(basis.nodes)
    np.testing.assert_allclose(vals, np.eye(basis.n_nodes), atol=1e-14)


@pytest.mark.parametrize("degree", [1, 2])
def test_partition_of_unity(degree):
    rng = np.random.default_rng(11)
    basis = reference_basis(degree)
    xi = rng.uniform(0, 1, 50)
    eta = rng.uniform(0, 1, 50) * (1 - xi)
    pts = np.column_stack([xi, eta])
    np.testing.assert_allclose(basis.eval(pts).sum(axis=1), 1.0, atol=1e-13)
    np.testing.assert_allclose(
        basis.eval_grad(pts).sum(axis=1), 0.0, atol=1e-13
    )


def test_p1_gradients_constant():
    basis = reference_basis(1)
    g = basis.eval_grad(np.array([[0.2, 0.3], [0.7, 0.1]]))
    np.testing.assert_allclose(g[0], g[1], atol=1e-15)
    np.testing.assert_allclose(g[0], [[-1, -1], [1, 0], [0, 1]], atol=1e-15)


def test_p2_reproduces_quadratics():
    # coefficients from nodal values must reproduce any quadratic exactly
    def q(x, y):
        return 1.0 + 2.0 * x - y + x**2 - 3.0 * x * y + 2.0 * y**2

    def q_grad(x, y):
        return np.stack([2.0 + 2.0 * x - 3.0 * y, -1.0 - 3.0 * x + 4.0 * y], axis=-1)

    basis = reference_basis(2)
    coeffs = q(basis.nodes[:, 0], basis.nodes[:, 1])
    rng = np.random.default_rng(5)
    xi = rng.uniform(0, 1, 40)
    eta = rng.uniform(0, 1, 40) * (1 - xi)
    pts = np.column_stack([xi, eta])
    np.testing.assert_allclose(basis.eval(pts) @ coeffs, q(xi, eta), atol=1e-12)
    grads = np.einsum("pnc,n->pc", basis.eval_grad(pts), coeffs)
    np.testing.assert_allclose(grads, q_grad(xi, eta), atol=1e-12)


def reference_values(degree, points):
    """The basis values written one node at a time: the reference for ReferenceBasis.eval."""
    points = np.atleast_2d(points)
    xi, eta = points[:, 0], points[:, 1]
    l0, l1, l2 = 1.0 - xi - eta, xi, eta
    if degree == 1:
        return np.column_stack([l0, l1, l2])
    return np.column_stack(
        [
            l0 * (2.0 * l0 - 1.0),
            l1 * (2.0 * l1 - 1.0),
            l2 * (2.0 * l2 - 1.0),
            4.0 * l0 * l1,
            4.0 * l1 * l2,
            4.0 * l2 * l0,
        ]
    )


def reference_gradients(degree, points):
    """The basis gradients written one node at a time: the reference for ReferenceBasis.eval_grad."""
    points = np.atleast_2d(points)
    grad_lambda = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    if degree == 1:
        return np.broadcast_to(grad_lambda, (len(points), 3, 2)).copy()
    lam = reference_values(1, points)
    grads = np.empty((len(points), 6, 2))
    for i in range(3):
        grads[:, i, :] = (4.0 * lam[:, i, None] - 1.0) * grad_lambda[i]
    for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
        grads[:, 3 + k, :] = 4.0 * (lam[:, j, None] * grad_lambda[i] + lam[:, i, None] * grad_lambda[j])
    return grads


def random_reference_points(n, seed):
    rng = np.random.default_rng(seed)
    xi = rng.uniform(0, 1, n)
    return np.column_stack([xi, rng.uniform(0, 1, n) * (1 - xi)])


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize(
    "points",
    [
        random_reference_points(500, 3),
        triangle_rule(2).points,
        triangle_rule(4).points,
        triangle_rule(6).points,
        np.array([0.3, 0.2]),
        np.zeros((0, 2)),
    ],
    ids=["random", "rule2", "rule4", "rule6", "one point", "no points"],
)
def test_basis_matches_per_node_formulas(degree, points):
    basis = reference_basis(degree)
    values, grads = basis.eval(points), basis.eval_grad(points)
    assert values.dtype == grads.dtype == np.float64
    assert np.array_equal(values, reference_values(degree, points))
    assert np.array_equal(grads, reference_gradients(degree, points))


def test_reference_nodes_are_one_read_only_table():
    nodes = reference_basis(2).nodes
    np.testing.assert_array_equal(reference_basis(1).nodes, nodes[:3])
    # node 3+k is the midpoint of the edge from vertex k to vertex k+1 (mod 3), as the dof map numbers them
    for k in range(3):
        np.testing.assert_array_equal(nodes[3 + k], (nodes[k] + nodes[(k + 1) % 3]) / 2)
    for degree in (1, 2):
        nodes = reference_basis(degree).nodes
        assert not nodes.flags.writeable
        with pytest.raises(ValueError):
            nodes[0, 0] = 0.5


def test_reference_basis_rejects_other_degrees():
    for degree in (3, 0, -1, 1.0, 2.0, True, "1", None):
        with pytest.raises(InvalidParameter, match="degree must be the integer 1 or 2"):
            reference_basis(degree)


def test_dofmap_counts_square():
    mesh = generate_square_mesh(2)  # 9 vertices, 8 triangles, 16 edges
    assert build_dofmap(mesh, 1, continuous=True).n_dofs == 9
    assert build_dofmap(mesh, 2, continuous=True).n_dofs == 9 + 16
    assert build_dofmap(mesh, 1, continuous=False).n_dofs == 24
    assert build_dofmap(mesh, 2, continuous=False).n_dofs == 48


def test_dofmap_counts_disk():
    mesh = generate_disk_mesh(2)
    n_edges = len(mesh.interior_edges) + len(mesh.boundary_edges)
    assert build_dofmap(mesh, 1, continuous=True).n_dofs == 19
    assert build_dofmap(mesh, 2, continuous=True).n_dofs == 19 + n_edges
    assert build_dofmap(mesh, 2, continuous=False).n_dofs == 6 * 24


def test_continuous_dofs_are_shared():
    mesh = generate_square_mesh(1)
    dm = build_dofmap(mesh, 2, continuous=True)
    cd = dm.cell_dofs
    # the two triangles share the diagonal (0, 3): vertex dofs and the
    # midpoint dof on that edge must coincide
    shared = set(cd[0]) & set(cd[1])
    assert len(shared) == 3
    dg = build_dofmap(mesh, 2, continuous=False)
    assert len(set(dg.cell_dofs[0]) & set(dg.cell_dofs[1])) == 0


def test_dof_points_continuous_p2():
    mesh = generate_square_mesh(2)
    dm = build_dofmap(mesh, 2, continuous=True)
    pts = dof_points(mesh, dm)
    assert pts.shape == (dm.n_dofs, 2)
    np.testing.assert_allclose(pts[: mesh.n_vertices], mesh.vertices, atol=1e-15)
    # every dof point is distinct for a continuous map
    assert len({(round(x, 12), round(y, 12)) for x, y in pts}) == dm.n_dofs


@pytest.mark.parametrize("degree", [1, 2])
def test_interpolation_is_exact_on_polynomials(degree):
    mesh = generate_square_mesh(3)
    dm = build_dofmap(mesh, degree, continuous=True)

    def f(x, y):
        if degree == 1:
            return 0.25 - 2.0 * x + 0.5 * y
        return 0.25 - 2.0 * x + 0.5 * y + x * y - y**2

    coeffs = interpolate(mesh, dm, f)
    pts = dof_points(mesh, dm)
    np.testing.assert_allclose(coeffs, f(pts[:, 0], pts[:, 1]), atol=1e-14)


@pytest.mark.parametrize("degree", [1, 2])
def test_continuous_embedding(degree):
    mesh = generate_disk_mesh(2)
    dm_dg = build_dofmap(mesh, degree, continuous=False)
    dm_c = build_dofmap(mesh, degree, continuous=True)
    E = continuous_embedding(dm_dg, dm_c)
    assert E.shape == (dm_dg.n_dofs, dm_c.n_dofs)
    np.testing.assert_allclose(np.asarray(E.sum(axis=1)).ravel(), 1.0)

    def f(x, y):
        return np.sin(x) + y

    np.testing.assert_allclose(
        E @ interpolate(mesh, dm_c, f), interpolate(mesh, dm_dg, f), atol=1e-15
    )
    with pytest.raises(InvalidParameter):
        continuous_embedding(dm_c, dm_dg)
    if degree == 2:
        with pytest.raises(InvalidParameter):
            continuous_embedding(build_dofmap(mesh, 1, continuous=False), dm_c)


@pytest.mark.parametrize("func, message", [
    (lambda x, y: x + 1j * y, "^the interpolated function must be real"),
    (lambda x, y: np.ones(3), r"^the interpolated function of shape \(3,\) does not broadcast"),
    (lambda x, y: np.stack([x, y], axis=-1), r"^the interpolated function of shape \(\d+, 2\) does not broadcast"),
    (None, "^the interpolated function must be callable, got None"),
    (2.0, "^the interpolated function must be callable, got 2.0"),
], ids=["complex", "three values", "a vector per point", "None", "float"])
def test_interpolating_a_function_that_is_not_real_or_does_not_broadcast_is_rejected(func, message):
    # unchecked, the complex values lost their imaginary part and the others came back as they were;
    # what is not callable raised TypeError
    mesh = generate_disk_mesh(3)
    with pytest.raises(InvalidParameter, match=message):
        interpolate(mesh, build_dofmap(mesh, 2, continuous=True), func)


def test_interpolation_is_a_new_writable_array_of_floats():
    mesh = generate_disk_mesh(3)
    dm = build_dofmap(mesh, 2, continuous=False)
    constant = interpolate(mesh, dm, lambda x, y: 2)  # a 0-d array before
    assert constant.shape == (dm.n_dofs,) and constant.dtype == float and np.all(constant == 2.0)
    constant[0] = 1.0  # writable
    given = np.arange(dm.n_dofs, dtype=float)
    values = interpolate(mesh, dm, lambda x, y: given)
    assert values is not given and np.array_equal(values, given) and values.flags.writeable


@pytest.mark.parametrize("continuous", [True, False])
@pytest.mark.parametrize("degree", [1, 2])
def test_dof_maps_of_another_mesh_are_rejected(degree, continuous):
    # unchecked, dof_points and interpolate raised a numpy broadcast error, and the
    # embedding of P1 on 96 triangles into P2-DG on 54 gave a 324 x 61 matrix
    coarse, fine = generate_disk_mesh(3), generate_disk_mesh(4)
    other = build_dofmap(fine, degree, continuous)
    for call in (lambda: dof_points(coarse, other), lambda: interpolate(coarse, other, lambda x, y: x + y)):
        with pytest.raises(InvalidParameter, match="the dof map has 96 cells, the mesh 54 triangles"):
            call()
    with pytest.raises(InvalidParameter, match="the dof map has 96 cells, the mesh 54 triangles"):
        continuous_embedding(build_dofmap(coarse, 2, continuous), build_dofmap(fine, degree, continuous=True))
