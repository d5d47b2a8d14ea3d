"""Error norms, convergence-rate arithmetic, and norm cross-checks."""

import math

import numpy as np
import pytest

from robinfem import (
    DegenerateSequence,
    Method,
    MissingExactSolution,
    ProblemData,
    Scheme,
    Mesh,
    assemble,
    assemble_interior_penalty,
    build_dofmap,
    edge_rule,
    energy_error,
    eoc,
    error_report,
    generate_disk_mesh,
    generate_square_mesh,
    get_problem,
    l2_error,
    consistency_residual,
    norm_matrix,
    reference_basis,
    solve,
    triangle_rule,
)

NIT = Method.NITSCHE
DG = Method.SIPDG


def zero_exact_data():
    def zero(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    def zero_grad(x, y):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (2,))

    return ProblemData(f=zero, u0=zero, g=zero, exact_u=zero, exact_grad=zero_grad)


def test_eoc_exact_rates():
    rates = eoc([(0.4, 0.4), (0.2, 0.2), (0.1, 0.1)])
    np.testing.assert_allclose(rates, [1.0, 1.0], atol=1e-14)
    rates = eoc([(0.4, 0.16), (0.2, 0.04)])
    np.testing.assert_allclose(rates, [2.0], atol=1e-14)


def test_eoc_rounding_plateau_is_nan():
    rates = eoc([(0.4, 1e-16), (0.2, 5e-17)])
    assert len(rates) == 1 and math.isnan(rates[0])
    # one error above the plateau still yields a number
    rates = eoc([(0.4, 1e-10), (0.2, 1e-16)])
    assert math.isfinite(rates[0])


def test_eoc_degenerate_sequences():
    with pytest.raises(DegenerateSequence):
        eoc([(0.4, 0.1)])
    with pytest.raises(DegenerateSequence):
        eoc([(0.2, 0.1), (0.4, 0.05)])
    with pytest.raises(DegenerateSequence):
        eoc([(0.4, 0.1), (0.2, 0.0)])
    with pytest.raises(DegenerateSequence):
        eoc([(0.4, -0.1), (0.2, 0.05)])


def test_l2_error_of_constant():
    mesh = generate_disk_mesh(4)
    dm = build_dofmap(mesh, 1, continuous=True)
    err = l2_error(mesh, zero_exact_data(), np.ones(dm.n_dofs), dm)
    # constant 1 against exact 0: sqrt of the polygon area
    assert abs(err - math.sqrt(12.0 * math.sin(math.pi / 12.0))) < 1e-13


def test_energy_error_components_single_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Mesh(verts, np.array([[0, 1, 2]]))
    dm = build_dofmap(mesh, 1, continuous=True)
    scheme = Scheme(NIT, epsilon=0.5)
    solution = np.array([0.0, 1.0, 0.0])  # the function v = x
    err, comps = energy_error(mesh, scheme, zero_exact_data(), solution, dofmap=dm)
    assert abs(comps["gradient"] - 0.5) < 1e-14  # |grad v|^2 * area
    assert comps["boundary_trace"] > 0.0
    assert comps["boundary_flux"] > 0.0
    assert abs(err - math.sqrt(sum(comps.values()))) < 1e-14


@pytest.mark.parametrize("degree", [1, 2])
def test_sipdg_on_mesh_without_interior_edges(degree):
    # one triangle has an empty interior edge table; every edge form and
    # norm must run through it and report the discontinuous terms as zero
    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))
    assert len(mesh.interior_edges) == 0
    scheme = Scheme(DG, degree=degree, epsilon=0.5)
    data = get_problem("linear_patch").make_data(0.5)
    system = assemble(mesh, scheme, data)
    dm = system.dofmap
    ip = assemble_interior_penalty(mesh, dm, reference_basis(degree), scheme)
    assert ip.shape == (dm.n_dofs, dm.n_dofs) and ip.nnz == 0
    for variant in ("energy", "augmented"):
        assert norm_matrix(mesh, scheme, dofmap=dm, variant=variant).shape == ip.shape
    assert math.isfinite(consistency_residual(mesh, scheme, data, dofmap=dm))
    solution = np.linspace(-1.0, 1.0, dm.n_dofs)
    _, comps = energy_error(mesh, scheme, data, solution, dofmap=dm)
    assert comps["jump"] == 0.0 and comps["interior_flux"] == 0.0
    report = error_report(mesh, scheme, data, solution, dm)
    assert report.jump_seminorm == 0.0


@pytest.mark.parametrize("method", [NIT, DG])
@pytest.mark.parametrize("degree", [1, 2])
def test_energy_error_matches_norm_matrix(method, degree):
    # with exact solution zero the energy error of chi is its norm,
    # which the gram matrix of the augmented norm must reproduce
    rng = np.random.default_rng(31)
    mesh = generate_disk_mesh(3)
    scheme = Scheme(method, degree=degree, epsilon=0.7)
    dm = build_dofmap(mesh, degree, continuous=scheme.continuous)
    M = norm_matrix(mesh, scheme, dofmap=dm, variant="augmented")
    data = zero_exact_data()
    for _ in range(3):
        chi = rng.standard_normal(dm.n_dofs)
        err, _ = energy_error(mesh, scheme, data, chi, dofmap=dm)
        assert abs(err - math.sqrt(chi @ (M @ chi))) <= 1e-10 * err


@pytest.mark.parametrize("method", [NIT, DG])
def test_norm_equivalence_ratio_is_level_independent(method):
    # augmented norm dominates the plain one; their ratio must stay in a
    # level-independent band for FE vectors
    rng = np.random.default_rng(42)
    per_level_max = []
    for rings in (2, 4, 8):
        mesh = generate_disk_mesh(rings)
        scheme = Scheme(method, degree=1, epsilon=1.0)
        dm = build_dofmap(mesh, 1, continuous=scheme.continuous)
        M_plain = norm_matrix(mesh, scheme, dofmap=dm, variant="energy")
        M_aug = norm_matrix(mesh, scheme, dofmap=dm, variant="augmented")
        ratios = []
        for _ in range(20):
            chi = rng.standard_normal(dm.n_dofs)
            ratios.append(math.sqrt((chi @ (M_aug @ chi)) / (chi @ (M_plain @ chi))))
        assert min(ratios) >= 1.0 - 1e-12
        per_level_max.append(max(ratios))
    assert max(per_level_max) <= 10.0
    assert max(per_level_max) / min(per_level_max) <= 2.0


def test_norm_matrix_rejects_unknown_variant():
    from robinfem import InvalidParameter

    mesh = generate_disk_mesh(2)
    with pytest.raises(InvalidParameter):
        norm_matrix(mesh, Scheme(NIT), variant="plain")


@pytest.mark.parametrize("method", [NIT, DG])
def test_error_norms_quadrature_order_stable(method):
    problem = get_problem("sinsin")
    data = problem.make_data(1.0)
    scheme = Scheme(method, degree=1, epsilon=1.0)
    mesh = generate_disk_mesh(8)
    system = assemble(mesh, scheme, data)
    solution, _ = solve(system)
    err_hi, _ = energy_error(mesh, scheme, data, solution, dofmap=system.dofmap)
    err_lo, _ = energy_error(
        mesh,
        scheme,
        data,
        solution,
        dofmap=system.dofmap,
        volume_rule=triangle_rule(4),
        boundary_rule=edge_rule(6),
    )
    assert abs(err_hi - err_lo) <= 1e-3 * err_hi
    l2_hi = l2_error(mesh, data, solution, system.dofmap)
    l2_lo = l2_error(mesh, data, solution, system.dofmap, rule=triangle_rule(4))
    assert abs(l2_hi - l2_lo) <= 1e-3 * l2_hi


def test_error_report_fields():
    mesh = generate_disk_mesh(4)
    data = get_problem("sinsin").make_data(1.0)
    for method in (NIT, DG):
        scheme = Scheme(method, degree=1, epsilon=1.0)
        system = assemble(mesh, scheme, data)
        solution, _ = solve(system)
        report = error_report(mesh, scheme, data, solution, system.dofmap)
        assert report.level == mesh.level
        assert report.h_max == mesh.h_max
        assert report.dof_count == system.dofmap.n_dofs
        assert report.err_energy >= report.err_n >= 0.0
        assert report.err_l2 > 0.0
        assert report.eoc_energy is None and report.eoc_l2 is None
        if method is DG:
            assert report.jump_seminorm is not None
            assert report.jump_seminorm <= report.err_energy
        else:
            assert report.jump_seminorm is None


def test_error_norms_require_exact_solution():
    mesh = generate_disk_mesh(2)
    dm = build_dofmap(mesh, 1, continuous=True)

    def zero(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    data = ProblemData(f=zero, u0=zero, g=zero)
    with pytest.raises(MissingExactSolution):
        l2_error(mesh, data, np.zeros(dm.n_dofs), dm)
    with pytest.raises(MissingExactSolution):
        energy_error(mesh, Scheme(NIT), data, np.zeros(dm.n_dofs), dofmap=dm)


def test_zero_solution_of_zero_problem_has_zero_errors():
    mesh = generate_square_mesh(2)
    dm = build_dofmap(mesh, 1, continuous=True)
    data = zero_exact_data()
    sol = np.zeros(dm.n_dofs)
    assert l2_error(mesh, data, sol, dm) == 0.0
    err, _ = energy_error(mesh, Scheme(NIT), data, sol, dofmap=dm)
    assert err == 0.0
