"""Manufactured solutions: PDE residual and boundary data identities.

sympy recomputes -laplace(u) and grad(u) symbolically from each preset's
solution formula, so the hand-coded f and exact_grad are checked against
an independent derivation.
"""

import numpy as np
import pytest
import sympy as sm

from robinfem import (
    DomainKind,
    InvalidParameter,
    Method,
    Scheme,
    assemble,
    generate_disk_mesh,
    get_problem,
    list_problems,
    problem_names,
    solve,
)

X, Y = sm.symbols("x y", real=True)

SYMBOLIC_U = {
    "sinsin": sm.sin(X) * sm.sin(Y),
    "sinsin_flux": sm.sin(X) * sm.sin(Y),
    "sqrt_singular": sm.sqrt((X + 1) ** 2 + Y**2),
    "radial_exp": sm.exp(-(X**2) - Y**2),
    "linear_patch": sm.Rational(3, 10) + sm.Rational(7, 10) * X - sm.Rational(2, 5) * Y,
}


def interior_points(problem, n, seed):
    rng = np.random.default_rng(seed)
    if problem.domain.kind is DomainKind.UNIT_DISK:
        r = np.sqrt(rng.uniform(0.0, 1.0, n)) * 0.99
        th = rng.uniform(0.0, 2.0 * np.pi, n)
        return r * np.cos(th), r * np.sin(th)
    return rng.uniform(0.01, 0.99, n), rng.uniform(0.01, 0.99, n)


@pytest.mark.parametrize("name", sorted(SYMBOLIC_U))
def test_source_term_matches_symbolic_laplacian(name):
    problem = get_problem(name)
    data = problem.make_data(1.0)
    u = SYMBOLIC_U[name]
    f_sym = sm.lambdify((X, Y), sm.simplify(-sm.diff(u, X, 2) - sm.diff(u, Y, 2)), "numpy")
    ux = sm.lambdify((X, Y), sm.diff(u, X), "numpy")
    uy = sm.lambdify((X, Y), sm.diff(u, Y), "numpy")
    u_num = sm.lambdify((X, Y), u, "numpy")
    x, y = interior_points(problem, 1000, seed=1234)
    scale = 1.0 + np.abs(f_sym(x, y))
    assert np.max(np.abs(data.f(x, y) - f_sym(x, y)) / scale) < 1e-10
    assert np.max(np.abs(data.exact_u(x, y) - u_num(x, y))) < 1e-10
    grad = data.exact_grad(x, y)
    gscale = 1.0 + np.hypot(ux(x, y), uy(x, y))
    assert np.max(np.abs(grad[..., 0] - ux(x, y)) / gscale) < 1e-10
    assert np.max(np.abs(grad[..., 1] - uy(x, y)) / gscale) < 1e-10


@pytest.mark.parametrize("name", ["sinsin", "sinsin_flux", "sqrt_singular", "radial_exp"])
@pytest.mark.parametrize("eps", [1e-3, 1.0, 1e3])
def test_robin_identity_on_true_boundary(name, eps):
    # du/dnu + u/eps must equal u0/eps + g on the circle, whichever way
    # the data splits the flux between u0 and g
    problem = get_problem(name)
    data = problem.make_data(eps)
    rng = np.random.default_rng(9)
    theta = rng.uniform(-0.9 * np.pi, 0.9 * np.pi, 1000)  # stay away from (-1, 0)
    x, y = np.cos(theta), np.sin(theta)
    grad = data.exact_grad(x, y)
    dn = grad[..., 0] * x + grad[..., 1] * y
    lhs = dn + data.exact_u(x, y) / eps
    rhs = data.u0(x, y) / eps + data.g(x, y)
    scale = 1.0 + np.abs(lhs)
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-10


@pytest.mark.parametrize("eps", [1e-3, 1.0, 1e3])
def test_robin_identity_square_sides(eps):
    data = get_problem("linear_patch").make_data(eps)
    rng = np.random.default_rng(13)
    t = rng.uniform(0.01, 0.99, 250)
    sides = [
        (t, np.zeros_like(t), (0.0, -1.0)),
        (t, np.ones_like(t), (0.0, 1.0)),
        (np.zeros_like(t), t, (-1.0, 0.0)),
        (np.ones_like(t), t, (1.0, 0.0)),
    ]
    for x, y, (nx, ny) in sides:
        grad = data.exact_grad(x, y)
        lhs = grad[..., 0] * nx + grad[..., 1] * ny + data.exact_u(x, y) / eps
        rhs = data.u0(x, y) / eps + data.g(x, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * (1.0 + np.max(np.abs(lhs)))


def test_flux_split_variant_is_the_same_problem():
    # sinsin folds the flux into u0; sinsin_flux moves it to g: the
    # composite Robin data and the discrete solutions must agree
    eps = 0.5
    plain = get_problem("sinsin").make_data(eps)
    split = get_problem("sinsin_flux").make_data(eps)
    rng = np.random.default_rng(3)
    theta = rng.uniform(0.0, 2.0 * np.pi, 300)
    for radius in (1.0, 0.98):  # on the circle and on a polygon-like offset
        x, y = radius * np.cos(theta), radius * np.sin(theta)
        combo_a = plain.u0(x, y) / eps + plain.g(x, y)
        combo_b = split.u0(x, y) / eps + split.g(x, y)
        np.testing.assert_allclose(combo_a, combo_b, rtol=1e-12, atol=1e-12)
    # the split variant really does carry the flux in g
    assert np.max(np.abs(split.g(np.cos(theta), np.sin(theta)))) > 0.1

    mesh = generate_disk_mesh(4)
    scheme = Scheme(Method.NITSCHE, degree=1, epsilon=eps)
    xa, _ = solve(assemble(mesh, scheme, plain))
    xb, _ = solve(assemble(mesh, scheme, split))
    assert np.max(np.abs(xa - xb)) < 1e-10 * np.max(np.abs(xa))


def test_data_evaluable_on_enclosing_box():
    # quadrature points of a polygonal mesh can fall slightly outside the
    # smooth domain; data must stay finite there
    for name in problem_names():
        data = get_problem(name).make_data(1.0)
        x = np.array([1.02, -1.01, 0.3])
        y = np.array([0.1, -0.05, 1.04])
        for field in (data.f, data.u0, data.g, data.exact_u):
            assert np.all(np.isfinite(field(x, y)))
        assert np.all(np.isfinite(data.exact_grad(x, y)))


def test_registry():
    names = problem_names()
    assert names == sorted(names)
    assert set(names) == {
        "sinsin",
        "sinsin_flux",
        "sqrt_singular",
        "radial_exp",
        "linear_patch",
    }
    rows = list_problems()
    assert [r[0] for r in rows] == names
    by_name = {r[0]: r for r in rows}
    assert by_name["sinsin"][1] == "unit_disk"
    assert by_name["linear_patch"][1] == "unit_square"
    assert all(r[2] for r in rows)
    with pytest.raises(InvalidParameter) as err:
        get_problem("does_not_exist")
    assert "does_not_exist" in str(err.value)


@pytest.mark.parametrize("epsilon", ["x", None, True, 0.0, -1.0, float("nan"), float("inf")])
def test_an_epsilon_that_a_scheme_refuses_is_refused_by_make_data(epsilon):
    # "x" used to fail only inside assemble, with a numpy UFuncTypeError; the others gave data
    with pytest.raises(InvalidParameter, match="epsilon must be"):
        Scheme(Method.NITSCHE, epsilon=epsilon)
    with pytest.raises(InvalidParameter, match="epsilon must be"):
        get_problem("sinsin").make_data(epsilon)


@pytest.mark.parametrize("name", [["sinsin"], {"sinsin"}, {"name": "sinsin"}], ids=["list", "set", "dict"])
def test_a_name_that_is_not_a_str_is_refused(name):
    # unhashable names used to escape the registry lookup as a bare TypeError
    with pytest.raises(InvalidParameter, match="unknown problem"):
        get_problem(name)
