"""Error norms, convergence-rate arithmetic, and norm cross-checks."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from robinfem import (
    DegenerateSequence,
    InvalidParameter,
    Method,
    MissingExactSolution,
    ProblemData,
    Scheme,
    Mesh,
    assemble,
    assemble_interior_penalty,
    assemble_load,
    build_dofmap,
    energy_error,
    eoc,
    error_report,
    generate_disk_mesh,
    generate_square_mesh,
    get_problem,
    l2_error,
    edge_rule,
    norm_matrix,
    reference_basis,
    solve,
    triangle_rule,
)

from oracles import consistency_residual

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
    # every h and error must be a positive finite number; compared unchecked, a str or None raises TypeError,
    # and a bool, a numbers.Real, passed: eoc([(True, 0.1), (0.5, 0.05)]) was [1.0]
    nan, inf = float("nan"), float("inf")
    for pairs in (
        [("1", 1.0), (0.5, 0.25)],
        [(None, 1.0), (0.5, 0.25)],
        [(1.0, 0.5), (0.5, "0.25")],
        [(0.5, nan), (0.25, 0.1)],
        [(0.5, 0.1), (0.25, nan)],
        [(0.5, inf), (0.25, 0.1)],
        [(inf, 0.1), (0.25, 0.05)],
        [(0.5, 0.1), (nan, 0.05)],
        [(0.5, 0.1), (0.0, 0.05)],
        [(0.5, 0.1), (-0.25, 0.05)],
        [(True, 0.1), (0.5, 0.05)],
        [(0.5, True), (0.25, 0.5)],
    ):
        with pytest.raises(DegenerateSequence):
            eoc(pairs)


@pytest.mark.parametrize("errors", [None, 3, [(0.5, 0.1), (0.25,)], [(0.5, 0.1), 3], [(0.5, 0.1), (0.25, 0.05, 0.0)]],
                         ids=["None", "int", "short pair", "int item", "triple"])
def test_eoc_refuses_what_is_not_a_sequence_of_pairs(errors):
    # unpacked unchecked, these raised TypeError or ValueError
    with pytest.raises(DegenerateSequence, match="need a sequence of"):
        eoc(errors)


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


def test_energy_error_edge_components_of_linear_exact_solution():
    # exact u = a.x against u_h = 0: each edge component is a closed form
    # in the edge geometry; the interior flux takes the whole gradient,
    # normal and tangential part
    a = np.array([0.3, -1.7])

    def u(x, y):
        return a[0] * np.asarray(x, dtype=float) + a[1] * np.asarray(y, dtype=float)

    def grad(x, y):
        return np.broadcast_to(a, np.shape(x) + (2,)).copy()

    data = ProblemData(f=u, u0=u, g=u, exact_u=u, exact_grad=grad)
    mesh = generate_square_mesh(3)  # its diagonals keep a wrong tangent from cancelling out
    eps = 0.5
    dm = build_dofmap(mesh, 1, continuous=False)
    _, comps = energy_error(mesh, Scheme(DG, epsilon=eps), data, np.zeros(dm.n_dofs), dofmap=dm)
    inner, bdy = mesh.interior_edges, mesh.boundary_edges
    ua, ub = u(*mesh.vertices[bdy.vertex_ids.T].transpose(2, 0, 1))
    h = bdy.h_e
    trace = np.sum(h / (eps + h) * (ua * ua + ua * ub + ub * ub) / 3.0)
    assert comps["jump"] == 0.0
    assert comps["interior_flux"] == pytest.approx(a @ a * np.sum(inner.h_e**2), rel=1e-13)
    assert comps["boundary_flux"] == pytest.approx(np.sum(h**2 * (bdy.normal @ a) ** 2), rel=1e-13)
    assert comps["boundary_trace"] == pytest.approx(trace, rel=1e-13)


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
        assert norm_matrix(mesh, scheme, variant=variant).shape == ip.shape
    assert math.isfinite(consistency_residual(mesh, scheme, data))
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
    M = norm_matrix(mesh, scheme, variant="augmented")
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
        M_plain = norm_matrix(mesh, scheme, variant="energy")
        M_aug = norm_matrix(mesh, scheme, variant="augmented")
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


@pytest.mark.parametrize("name", ["f", "u0", "g", "exact_u", "exact_grad"])
@pytest.mark.parametrize("bad", ["complex", "extra axis"])
def test_problem_data_that_is_not_real_or_does_not_broadcast_is_rejected(name, bad):
    # unchecked, complex values lost their imaginary part with only a warning,
    # and a value of the wrong shape raised a numpy broadcast error
    mesh, scheme, data = generate_disk_mesh(3), Scheme(NIT), get_problem("sinsin").make_data(1.0)
    good = getattr(data, name)
    worse = (lambda x, y: 1j * good(x, y)) if bad == "complex" else (lambda x, y: np.ones(np.shape(x) + (3,)))
    data = dataclasses.replace(data, **{name: worse})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameter, match="problem data"):
            system = assemble(mesh, scheme, data)  # reads f, u0 and g
            error_report(mesh, scheme, data, np.zeros(system.dofmap.n_dofs), system.dofmap)


def test_zero_solution_of_zero_problem_has_zero_errors():
    mesh = generate_square_mesh(2)
    dm = build_dofmap(mesh, 1, continuous=True)
    data = zero_exact_data()
    sol = np.zeros(dm.n_dofs)
    assert l2_error(mesh, data, sol, dm) == 0.0
    err, _ = energy_error(mesh, Scheme(NIT), data, sol, dofmap=dm)
    assert err == 0.0


@pytest.mark.parametrize("length", ["longer", "shorter"])
@pytest.mark.parametrize("norm", ["l2_error", "energy_error", "error_report"])
def test_a_solution_of_the_wrong_length_is_rejected(norm, length):
    # unchecked, a longer vector gives the errors of its first n_dofs entries and a shorter one an IndexError
    mesh = generate_disk_mesh(2)
    scheme, dm = Scheme(NIT), build_dofmap(mesh, 1, continuous=True)
    solution = np.zeros(dm.n_dofs + (1 if length == "longer" else -1))
    call = {
        "l2_error": lambda: l2_error(mesh, zero_exact_data(), solution, dm),
        "energy_error": lambda: energy_error(mesh, scheme, zero_exact_data(), solution, dofmap=dm),
        "error_report": lambda: error_report(mesh, scheme, zero_exact_data(), solution, dm),
    }[norm]
    with pytest.raises(InvalidParameter, match="solution has shape"):
        call()


@pytest.mark.parametrize("norm", ["l2_error", "energy_error", "error_report"])
def test_a_list_solution_gives_the_errors_of_its_array_and_a_complex_one_is_rejected(norm):
    # unchecked, a list ends in a TypeError at solution[dofmap.cell_dofs]
    mesh = generate_disk_mesh(2)
    scheme, dm = Scheme(DG), build_dofmap(mesh, 1, continuous=False)
    data, solution = get_problem("sinsin").make_data(1.0), np.linspace(-1.0, 1.0, dm.n_dofs)
    call = {
        "l2_error": lambda u: l2_error(mesh, data, u, dm),
        "energy_error": lambda u: energy_error(mesh, scheme, data, u, dofmap=dm),
        "error_report": lambda u: error_report(mesh, scheme, data, u, dm),
    }[norm]
    assert call(solution.tolist()) == call(solution)
    with pytest.raises(InvalidParameter, match="solution must be real"):
        call((1j * solution).tolist())


@pytest.mark.parametrize("method", [NIT, DG])
@pytest.mark.parametrize("degree", [1, 2])
def test_a_standalone_error_report_builds_no_assembly_space(method, degree):
    from robinfem.assembly import _MEMO

    mesh = generate_disk_mesh(3)
    scheme, data = Scheme(method, degree=degree), get_problem("sinsin").make_data(1.0)
    solution = np.linspace(-1.0, 1.0, build_dofmap(mesh, degree, scheme.continuous).n_dofs)
    fresh = generate_disk_mesh(3)
    report = error_report(fresh, scheme, data, solution, build_dofmap(fresh, degree, scheme.continuous))
    default = energy_error(fresh, scheme, data, solution)
    assert (degree, method) not in _MEMO[fresh]  # which holds the edge facts and the dof map, and no space
    # the same errors, bitwise, as on the dof map of the assembled system
    system = assemble(mesh, scheme, data)
    assert report == error_report(mesh, scheme, data, solution, system.dofmap)
    assert default == energy_error(mesh, scheme, data, solution, dofmap=system.dofmap)


@pytest.mark.parametrize("method", [NIT, DG])
@pytest.mark.parametrize("degree", [1, 2])
def test_an_error_report_on_no_dof_map_is_the_report_on_the_systems_own(method, degree):
    # None, the numbering that assemble uses, used to end in an AttributeError after every norm
    mesh = generate_disk_mesh(3)
    scheme, data = Scheme(method, degree=degree), get_problem("sinsin").make_data(1.0)
    system = assemble(mesh, scheme, data)
    solution = solve(system)[0]
    assert error_report(mesh, scheme, data, solution, None) == error_report(mesh, scheme, data, solution, system.dofmap)


def _counting(data):
    """data whose callables record the shape of each call's x, by field name."""
    calls = {}

    def counted(name, func):
        def call(x, y):
            calls.setdefault(name, []).append(np.shape(x))
            return func(x, y)
        return call

    return ProblemData(**{name: counted(name, func) for name, func in vars(data).items()}), calls


@pytest.mark.parametrize("method", [NIT, DG])
@pytest.mark.parametrize("degree", [1, 2])
def test_each_point_set_is_mapped_and_evaluated_once(monkeypatch, method, degree):
    mesh, scheme = generate_disk_mesh(3), Scheme(method, degree=degree)
    dofmap, basis = build_dofmap(mesh, degree, scheme.continuous), reference_basis(degree)
    mapped, physical_points = [], Mesh.physical_points
    monkeypatch.setattr(Mesh, "physical_points", lambda self, ref: mapped.append(len(ref)) or physical_points(self, ref))
    nq, ne = len(triangle_rule(6).points), len(edge_rule(8).points)
    volume, boundary = (mesh.n_triangles, nq), (ne, len(mesh.boundary_edges))
    interior = [(ne, len(mesh.interior_edges))] if method is DG else []

    # the rule-6 points once, and each data call on a whole point set: the volume, then each edge table
    data, calls = _counting(get_problem("sinsin_flux").make_data(0.5))
    error_report(mesh, scheme, data, np.linspace(-1.0, 1.0, dofmap.n_dofs), dofmap)
    assert mapped == [nq] and calls == {"exact_grad": [volume, boundary] + interior, "exact_u": [volume, boundary]}

    mapped.clear()
    data, calls = _counting(get_problem("sinsin_flux").make_data(0.5))
    assemble_load(mesh, dofmap, basis, scheme, data)
    robin = (len(edge_rule(4 if degree == 1 else 8).points), len(mesh.boundary_edges))
    assert len(mapped) == 1 and calls == {"f": [(mesh.n_triangles, mapped[0])], "u0": [robin], "g": [robin]}
