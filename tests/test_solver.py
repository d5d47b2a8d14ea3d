import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import robinfem.solver
from robinfem import (
    IndefiniteMatrix,
    InvalidParameter,
    NotConverged,
    Preconditioner,
    Scheme,
    Method,
    SolverConfig,
    SolverMethod,
    SparseSystem,
    TooLarge,
    assemble,
    generate_disk_mesh,
    get_problem,
    level_mesh,
    min_eigenvalue_dense,
    solve,
)

CG = SolverConfig(method=SolverMethod.CG)
DENSE = SolverConfig(method=SolverMethod.DENSE)


def test_identity_converges_immediately():
    A = sp.identity(40, format="csr")
    b = np.linspace(-1.0, 1.0, 40)
    x, report = solve((A, b), CG)
    np.testing.assert_allclose(x, b, atol=1e-14)
    assert report.iterations <= 1
    assert report.residual <= 1e-10


def test_small_spd_system():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    b = np.array([3.0, 3.0])
    for config in (CG, DENSE):
        x, report = solve((A, b), config)
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-10)
        assert report.residual <= 1e-10
    # the dense solve computes no eigenvalue; min_eigenvalue_dense is the one check
    assert abs(min_eigenvalue_dense(A) - 1.0) < 1e-12


def test_diagonal_system():
    A = sp.diags([1.0, 2.0, 3.0]).tocsr()
    b = np.array([1.0, 2.0, 3.0])
    x, _ = solve((A, b), CG)
    np.testing.assert_allclose(x, [1.0, 1.0, 1.0], atol=1e-12)
    assert abs(min_eigenvalue_dense(A) - 1.0) < 1e-13


def test_default_config_and_sparse_system_input():
    mesh = generate_disk_mesh(4)
    system = assemble(mesh, Scheme(Method.NITSCHE), get_problem("sinsin").make_data(1.0))
    x, report = solve(system)  # default config straight on a SparseSystem
    assert report.residual <= 1e-10
    assert len(x) == system.dofmap.n_dofs


def test_cg_matches_dense():
    mesh = generate_disk_mesh(4)
    system = assemble(mesh, Scheme(Method.SIPDG, degree=1), get_problem("sinsin").make_data(1.0))
    x_cg, _ = solve(system, SolverConfig(method=SolverMethod.CG, rel_tolerance=1e-12))
    x_d, _ = solve(system, DENSE)
    scale = np.max(np.abs(x_d))
    assert np.max(np.abs(x_cg - x_d)) <= 1e-8 * scale


def test_repeat_solve_is_bitwise_deterministic():
    mesh = generate_disk_mesh(3)
    system = assemble(mesh, Scheme(Method.NITSCHE), get_problem("radial_exp").make_data(1.0))
    x1, _ = solve(system, CG)
    x2, _ = solve(system, CG)
    assert np.array_equal(x1, x2)


def test_zero_rhs_short_circuits():
    A = sp.identity(5, format="csr")
    x, report = solve((A, np.zeros(5)), CG)
    assert np.all(x == 0.0)
    assert report.iterations == 0
    assert report.residual == 0.0


def test_cg_detects_nonpositive_diagonal():
    A = sp.diags([1.0, -2.0, 3.0]).tocsr()
    with pytest.raises(IndefiniteMatrix):
        solve((A, np.ones(3)), CG)


def test_cg_detects_indefinite_curvature():
    # positive diagonal but eigenvalues 3 and -1
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    b = np.array([1.0, 0.0])
    config = SolverConfig(method=SolverMethod.CG, preconditioner=Preconditioner.NONE)
    with pytest.raises(IndefiniteMatrix) as err:
        solve((A, b), config)
    assert len(err.value.residual_history) >= 1


def test_dense_rejects_indefinite_matrix():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(IndefiniteMatrix):
        solve((A, np.array([1.0, 0.0])), DENSE)
    assert min_eigenvalue_dense(A) < 0.0


def test_not_converged_keeps_history():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    b = np.array([1.0, 0.0])  # not an eigenvector, needs both iterations
    config = SolverConfig(method=SolverMethod.CG, max_iterations=1)
    with pytest.raises(NotConverged) as err:
        solve((A, b), config)
    assert len(err.value.residual_history) == 1
    assert err.value.residual_history[0] > 1e-10


def _non_finite_system(where):
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, 0.0])
    if where == "rhs":
        b[1] = np.nan
    else:
        A[0, 1] = A[1, 0] = np.inf
    return sp.csr_matrix(A), b


@pytest.mark.parametrize("where", ["rhs", "matrix"])
def test_cg_stops_at_a_non_finite_residual(where):
    # solve rejects such input up front (below); the CG loop keeps its own guard
    A, b = _non_finite_system(where)
    with pytest.raises(NotConverged, match="non-finite residual at iteration 1") as err:
        robinfem.solver._solve_cg(A, b, CG, None)
    assert len(err.value.residual_history) == 1
    assert not np.isfinite(err.value.residual_history[0])


@pytest.mark.parametrize("config", [CG, DENSE], ids=["cg", "dense"])
@pytest.mark.parametrize("where", ["rhs", "matrix"])
def test_solve_rejects_a_non_finite_matrix_or_rhs(where, config):
    with pytest.raises(InvalidParameter, match="non-finite entry"):
        solve(_non_finite_system(where), config)


def test_stiffness_matrix_is_singular_but_not_indefinite():
    from robinfem import assemble_volume, build_dofmap, generate_square_mesh, reference_basis

    mesh = generate_square_mesh(2)
    dm = build_dofmap(mesh, 1, continuous=True)
    K = assemble_volume(mesh, dm, reference_basis(1))
    lam = min_eigenvalue_dense(K)
    assert abs(lam) <= 1e-12 * abs(K).max()


def test_min_eigenvalue_takes_every_system_form():
    # it takes the matrix only: a system or a (matrix, rhs) pair is refused
    mesh = generate_disk_mesh(2)
    system = assemble(mesh, Scheme(Method.NITSCHE), get_problem("sinsin").make_data(1.0))
    assert min_eigenvalue_dense(system.matrix) > 0.0
    for other in (system, (system.matrix, system.rhs)):
        with pytest.raises(InvalidParameter, match="the matrix"):
            min_eigenvalue_dense(other)
    with pytest.raises(InvalidParameter):
        solve(system.matrix)  # a bare matrix has no right-hand side


@pytest.mark.parametrize("config", [CG, DENSE], ids=["cg", "dense"])
def test_an_empty_matrix_has_no_eigenvalue_but_solves(config):
    empty = sp.csr_matrix((0, 0))
    with pytest.raises(InvalidParameter, match="no eigenvalue"):
        min_eigenvalue_dense(empty)
    x, report = solve((empty, np.zeros(0)), config)
    assert x.shape == (0,) and report.residual == 0.0


@pytest.mark.parametrize("system", [
    (sp.identity(2, format="csr"), np.ones(2), None),
    [sp.identity(2, format="csr"), np.ones(2)],
], ids=["3-tuple", "list"])
def test_solve_takes_only_a_system_or_a_pair(system):
    # unchecked, a 3-tuple failed to unpack and a list asked for a right-hand side
    with pytest.raises(InvalidParameter, match="a SparseSystem or a \\(matrix, rhs\\) pair"):
        solve(system)


def test_dense_eigenvalue_guard():
    with pytest.raises(TooLarge):
        min_eigenvalue_dense(sp.identity(2001, format="csr"))


def test_dense_solve_refuses_what_it_cannot_hold():
    # 5001 dofs, one above the direct limit: refused before the dense copy is made
    with pytest.raises(TooLarge, match="the dense solve is limited to 5000 dofs, got 5001"):
        solve((sp.identity(5001, format="csr"), np.ones(5001)), SolverConfig(method=SolverMethod.DENSE))


def test_solver_config_validation():
    with pytest.raises(InvalidParameter):
        SolverConfig(rel_tolerance=0.0)
    with pytest.raises(InvalidParameter):
        SolverConfig(rel_tolerance=1.0)
    with pytest.raises(InvalidParameter):
        SolverConfig(max_iterations=0)
    with pytest.raises(InvalidParameter):
        solve((sp.identity(3, format="csr"), np.ones(4)))
    with pytest.raises(InvalidParameter, match="the right-hand side must be real"):
        solve((sp.identity(3, format="csr"), [[1.0], [1.0, 2.0], [3.0]]))  # ragged
    with pytest.raises(InvalidParameter, match="the prolongation must have 3 rows"):
        solve(SparseSystem(sp.identity(3, format="csr"), np.ones(3), None, sp.identity(2, format="csr")))
    for config in ("cg", SolverMethod.DENSE, {"method": SolverMethod.CG}):
        with pytest.raises(InvalidParameter, match="the solver config must be a SolverConfig"):
            solve((sp.identity(2, format="csr"), np.ones(2)), config)
    # the enum members themselves, and a tolerance that is a real number
    for bad in (dict(method="dense"), dict(method="qr"), dict(method=Preconditioner.NONE),
                dict(preconditioner="none"), dict(preconditioner=SolverMethod.CG), dict(preconditioner=None),
                dict(rel_tolerance="1e-8"), dict(rel_tolerance=None), dict(rel_tolerance=1e-8 + 0j)):
        with pytest.raises(InvalidParameter):
            SolverConfig(**bad)


@pytest.mark.parametrize("tol", [1e-300, 1e-17, 0.5 * np.finfo(float).eps])
def test_tolerance_below_machine_epsilon_is_rejected(tol):
    # below eps the recursive residual underflows p.A.p to 0 on an SPD matrix
    with pytest.raises(InvalidParameter, match="rel_tolerance"):
        SolverConfig(rel_tolerance=tol)
    assert SolverConfig(rel_tolerance=np.finfo(float).eps).rel_tolerance == np.finfo(float).eps


@pytest.mark.parametrize("method, degree", [(Method.NITSCHE, 1), (Method.SIPDG, 1), (Method.NITSCHE, 2)])
def test_cg_solution_scales_with_the_rhs(method, degree):
    problem = get_problem("sinsin")
    system = assemble(level_mesh(problem.domain, 1), Scheme(method, degree=degree), problem.make_data(1.0))
    x0, report0 = solve(system)
    # tiny rhs once underflowed into false verdicts or x = 0, huge ones overflowed
    for s in (1e-160, 1e-200, 1e200, 2.0**40, 2.0**-40):
        scaled = SparseSystem(system.matrix, s * system.rhs, system.dofmap, system.prolongation)
        x, report = solve(scaled)
        assert report.iterations == report0.iterations
        if math.log2(s).is_integer():  # scaling by a power of two is exact
            assert np.array_equal(x, s * x0) and report.residual == report0.residual
        else:
            assert np.abs(x - s * x0).max() <= 1e-10 * np.abs(s * x0).max()


def test_dense_residual_does_not_overflow_at_tiny_epsilon():
    # the Robin weight 1/eps = 1e200 makes the boundary rows and the rhs huge;
    # unscaled, the residual norm overflowed to inf/inf = nan
    problem = get_problem("sinsin")
    scheme = Scheme(Method.NITSCHE, epsilon=1e-200, gamma=0.0)
    system = assemble(level_mesh(problem.domain, 0), scheme, problem.make_data(1e-200))
    x, report = solve(system, DENSE)
    assert report.residual <= 1e-14
    assert np.abs(x).max() < 2.0
    # scaling by a power of two is exact, so the dense solution scales bitwise
    x2, report2 = solve((system.matrix, 2.0**-300 * system.rhs), DENSE)
    assert np.array_equal(x2, 2.0**-300 * x) and report2.residual == report.residual


def test_two_level_coarse_check_detects_indefiniteness():
    # positive diagonal, but P^T A P = -2 for the coarse vector (1, -1)
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    P = sp.csr_matrix(np.array([[1.0], [-1.0]]))
    system = SparseSystem(matrix=A, rhs=np.array([1.0, 0.0]), dofmap=None, prolongation=P)
    with pytest.raises(IndefiniteMatrix, match="P\\^T A P"):
        solve(system)


@pytest.mark.parametrize(
    "method, degree",
    [(Method.SIPDG, 1), (Method.SIPDG, 2), (Method.NITSCHE, 1), (Method.NITSCHE, 2)],
)
def test_default_config_detects_large_gamma(method, degree):
    mesh = generate_disk_mesh(4)
    scheme = Scheme(method, degree=degree, epsilon=1.0, gamma=100.0)
    system = assemble(mesh, scheme, get_problem("sinsin").make_data(1.0))
    with pytest.raises(IndefiniteMatrix):
        solve(system)


def test_two_level_iterations_stay_flat():
    domain = get_problem("sinsin").domain
    data = get_problem("sinsin").make_data(1.0)
    counts = []
    for level in range(4):
        system = assemble(level_mesh(domain, level), Scheme(Method.SIPDG), data)
        _, report = solve(system)
        assert report.coarse_dofs == system.prolongation.shape[1]
        counts.append(report.iterations)
    assert max(counts) <= 40, counts
    assert counts[3] <= 1.25 * counts[1], counts


def test_two_level_without_coarse_space_is_jacobi():
    mesh = generate_disk_mesh(8)
    system = assemble(mesh, Scheme(Method.NITSCHE), get_problem("sinsin").make_data(1.0))
    x_two, rep_two = solve(system)
    x_jac, rep_jac = solve((system.matrix, system.rhs))
    assert np.array_equal(x_two, x_jac)
    assert rep_two.iterations == rep_jac.iterations
    assert rep_two.coarse_dofs == 0


def test_repeat_two_level_solve_is_bitwise_deterministic():
    mesh = generate_disk_mesh(8)
    system = assemble(mesh, Scheme(Method.SIPDG, degree=2), get_problem("sinsin").make_data(1.0))
    x1, rep1 = solve(system)
    x2, rep2 = solve(system)
    assert np.array_equal(x1, x2)
    assert rep1.iterations == rep2.iterations


def _level_system(method, degree, level, problem="sinsin", epsilon=1.0, gamma=0.1):
    problem = get_problem(problem)
    scheme = Scheme(method, degree=degree, epsilon=epsilon, gamma=gamma)
    return assemble(level_mesh(problem.domain, level), scheme, problem.make_data(epsilon))


@pytest.mark.parametrize("degree", [1, 2])
def test_multilevel_iterations_stay_flat_above_the_direct_limit(degree):
    # Nitsche P1 has no continuous-P1 coarse space, so here every coarse level is
    # aggregated; Jacobi-CG doubles its count per level (240 -> 485 for P1)
    limit = robinfem.solver._DIRECT_LIMIT
    counts = []
    for level in (4, 5):
        system = _level_system(Method.NITSCHE, degree, level)
        assert system.dofmap.n_dofs > limit
        _, report = solve(system)
        assert 0 < report.coarse_dofs <= limit
        counts.append(report.iterations)
    assert max(counts) <= 60 and counts[1] <= 1.3 * counts[0], counts


def test_repeat_multilevel_solve_is_bitwise_deterministic():
    system = _level_system(Method.NITSCHE, 1, 4)
    x1, rep1 = solve(system)
    x2, rep2 = solve(system)
    assert rep1.coarse_dofs > 0  # the hierarchy has an aggregation level
    assert np.array_equal(x1, x2)
    assert rep1.iterations == rep2.iterations


@pytest.mark.parametrize("gamma", [0.1, 0.7])
def test_the_v_cycle_preconditioner_is_spd_whatever_the_matrix(monkeypatch, gamma):
    # a direct limit of 150 puts two V-cycle levels over an about 100-dof factor; at
    # gamma = 0.7 A has a negative eigenvalue, yet B stays SPD and CG finds the proof
    monkeypatch.setattr(robinfem.solver, "_DIRECT_LIMIT", 150)
    system = _level_system(Method.NITSCHE, 1, 2, gamma=gamma)
    A = system.matrix.tocsr()
    precond, bottom_dofs = robinfem.solver._level(A, None, 0)
    assert 0 < bottom_dofs <= 150
    B = np.column_stack([precond(column) for column in np.eye(A.shape[0])])
    assert np.abs(B - B.T).max() <= 1e-14 * np.abs(B).max()
    assert np.linalg.eigvalsh(0.5 * (B + B.T))[0] > 0.0
    if gamma == 0.7:
        assert min_eigenvalue_dense(A) < 0.0
        with pytest.raises(IndefiniteMatrix, match="nonpositive curvature"):
            solve(system)
    else:
        assert min_eigenvalue_dense(A) > 0.0
        solve(system)


@pytest.mark.parametrize("degree, problem, epsilon, most", [
    (1, "sinsin", 1.0, 20), (2, "radial_exp", 1e-6, 32), (2, "radial_exp", 1.0, 32), (2, "radial_exp", 1e3, 32),
], ids=["P1 sinsin", "P2 radial_exp eps=1e-6", "P2 radial_exp eps=1", "P2 radial_exp eps=1e3"])
def test_v_cycle_levels_keep_nitsche_level_4_iterations_low(degree, problem, epsilon, most):
    # additive aggregation levels took 42 (P1) and 39, 49 and 48 (P2) iterations here
    _, report = solve(_level_system(Method.NITSCHE, degree, 4, problem, epsilon))
    assert report.iterations <= most


def _jacobi_pcg(A, b, tol):
    """(x, iterations) of textbook Jacobi-preconditioned CG."""
    inv_diag = 1.0 / A.diagonal()
    x, r = np.zeros_like(b), b.copy()
    z = inv_diag * r
    p, rz = z.copy(), r @ z
    for it in range(1, 10 * len(b)):
        ap = A @ p
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) / np.linalg.norm(b) <= tol:
            return x, it
        z = inv_diag * r
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    raise AssertionError("Jacobi-PCG did not converge")


def test_a_matrix_rhs_pair_above_the_direct_limit_gets_the_hierarchy_of_a_system():
    system = _level_system(Method.NITSCHE, 1, 4)
    assert system.dofmap.n_dofs > robinfem.solver._DIRECT_LIMIT
    x, report = solve((system.matrix, system.rhs))
    x_system, report_system = solve(SparseSystem(system.matrix, system.rhs, None))
    assert report.coarse_dofs > 0 and np.array_equal(x, x_system)
    assert (report.iterations, report.residual, report.coarse_dofs) == (
        report_system.iterations, report_system.residual, report_system.coarse_dofs)


def test_a_matrix_rhs_pair_at_or_below_the_direct_limit_is_jacobi():
    system = _level_system(Method.NITSCHE, 1, 3)
    assert system.dofmap.n_dofs <= robinfem.solver._DIRECT_LIMIT
    x, report = solve((system.matrix, system.rhs))
    x_ref, iterations = _jacobi_pcg(system.matrix.tocsr(), system.rhs, 1e-10)
    assert report.iterations == iterations and report.coarse_dofs == 0
    assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()


_TRIDIAGONAL = sp.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]))


@pytest.mark.parametrize("prolongation, message", [
    (sp.csr_matrix(np.array([[1.0], [np.nan], [0.0]])), "the prolongation has a non-finite entry"),
    (sp.csr_matrix(np.ones((3, 5))), "the prolongation must have 3 rows, at most 3 columns"),
    (sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])), "a nonzero in each column"),
    (sp.csr_matrix(([1.0, 0.0], [0, 1], [0, 1, 1, 2]), shape=(3, 2)), "a nonzero in each column"),
    (sp.csr_matrix(np.array([[1.0 + 1.0j], [0.0], [0.0]])), "the prolongation must be real"),
    (np.array([1.0, 0.0, 0.0]), "the prolongation must be real, 2-D"),
    ([1.0, 0.0, 0.0], "the prolongation must be real, 2-D"),
], ids=["nan", "3x5", "zero column", "stored zeros", "complex", "1-D", "list"])
def test_a_malformed_prolongation_is_invalid_not_indefinite(prolongation, message):
    # unchecked, an SPD matrix raised IndefiniteMatrix, or numpy and attribute errors
    with pytest.raises(InvalidParameter, match=message):
        solve(SparseSystem(_TRIDIAGONAL, np.ones(3), None, prolongation))


def test_a_well_formed_prolongation_in_any_format_gives_the_same_solution():
    x, _ = solve((_TRIDIAGONAL, np.ones(3)))
    for prolongation in (sp.csc_matrix(np.array([[1.0], [0.0], [1.0]])), np.array([[1.0], [0.0], [1.0]]),
                         [[1.0], [0.0], [1.0]], sp.csr_matrix((3, 0))):
        y, _ = solve(SparseSystem(_TRIDIAGONAL, np.ones(3), None, prolongation))
        np.testing.assert_allclose(y, x, rtol=1e-12)


def test_a_system_without_strong_couplings_ends_in_jacobi():
    # no node has a strong neighbour, so aggregation finds no coarser level
    n = robinfem.solver._DIRECT_LIMIT + 1
    A = sp.diags(np.linspace(1.0, 2.0, n)).tocsr()
    x, report = solve(SparseSystem(A, np.ones(n), None))
    assert report.coarse_dofs == 0 and report.iterations == 1
    np.testing.assert_allclose(x, 1.0 / A.diagonal(), rtol=1e-14)


def _aggregated_matrices():
    """Matrices the solver aggregates, and some it never meets: every aggregated
    level of continuous P1 at level 4, the P1 coarse matrix of continuous P2 at
    level 4, and a random SPD matrix with a nonsymmetric strength graph."""
    p1 = _level_system(Method.NITSCHE, 1, 4).matrix
    yield "nitsche P1 level 4", p1
    prolongation = robinfem.solver._smoothed_aggregation(p1, p1.diagonal())[1]
    yield "its first Galerkin level", sp.csr_matrix(prolongation.T @ p1 @ prolongation)
    p2 = _level_system(Method.NITSCHE, 2, 4)
    yield "P1 coarse matrix of nitsche P2 level 4", sp.csr_matrix(p2.prolongation.T @ p2.matrix @ p2.prolongation)
    rng = np.random.default_rng(3)
    b = sp.random(3000, 3000, density=0.002, random_state=rng, format="csr")
    yield "random", sp.csr_matrix(b @ b.T + sp.diags(rng.uniform(0.5, 2.0, 3000)) + 0.3 * sp.triu(b, 1))


def _rounds(matrix):
    """(is_root, agg) of _smoothed_aggregation on matrix: its roots and the
    aggregate of every node (-1 for none), read from the locals of _tentative,
    which takes the rounds, as it returns."""
    seen, code, previous = {}, robinfem.solver._tentative.__code__, sys.getprofile()

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is code:
            seen.update(is_root=frame.f_locals["is_root"].copy(), agg=frame.f_locals["agg"].copy())

    sys.setprofile(profile)
    try:
        robinfem.solver._smoothed_aggregation(matrix, matrix.diagonal())
    finally:
        sys.setprofile(previous)
    return seen["is_root"], seen["agg"]


def test_root_rounds_give_independent_roots_and_aggregates_that_hold_them():
    for name, matrix in _aggregated_matrices():
        is_root, agg = _rounds(matrix)
        n, roots = len(agg), np.flatnonzero(is_root)
        assert 1 < len(roots) < n, name
        # the strength graph, with the diagonal, and its paths of at most two strong steps
        rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
        scale = np.sqrt(matrix.diagonal())
        strong = (rows == matrix.indices) | (np.abs(matrix.data) >= robinfem.solver._STRENGTH * scale[rows] * scale[matrix.indices])
        graph = sp.csr_matrix((np.ones(strong.sum()), (rows[strong], matrix.indices[strong])), shape=(n, n))
        near = (graph @ graph)[roots][:, roots] != 0
        # no two roots lie within two strong steps of each other both ways; on a symmetric
        # strength graph (all but the random matrix) that is a distance-2 independent set
        assert (near.multiply(near.T) != 0).nnz == len(roots), name
        if (graph != graph.T).nnz == 0:
            assert near.nnz == len(roots), name
        # each aggregate holds its root, and a node joins one exactly when it has a strong neighbour
        assert np.array_equal(agg[roots], np.arange(len(roots))), name
        lonely = np.diff(graph.indptr) == 1
        assert np.all(agg[lonely] == -1) and np.all((agg[~lonely] >= 0) & (agg[~lonely] < len(roots))), name
        assert lonely.any() == (name == "random"), name


_SADDLE = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # positive diagonal, eigenvalues 3 and -1


@pytest.mark.parametrize(
    "matrix, prolongation, message",
    [
        (sp.diags([1.0, -2.0, 3.0]).tocsr(), None, "matrix has a nonpositive diagonal entry"),
        (_SADDLE, sp.csr_matrix(np.array([[1.0], [-1.0]])), "level-1 matrix P^T A P has a nonpositive diagonal entry"),
        (_SADDLE, sp.identity(2, format="csr"), "coarse matrix P^T A P has a nonpositive pivot -3.000e+00"),
    ],
    ids=["level-0 diagonal", "level-1 diagonal", "bottom pivot"],
)
@pytest.mark.parametrize("rhs", [1.0, 0.0], ids=["rhs", "zero rhs"])
def test_each_hierarchy_check_raises_its_own_message(matrix, prolongation, message, rhs):
    # a zero right-hand side returns early only after the set-up has passed
    system = SparseSystem(matrix, np.full(matrix.shape[0], rhs), None, prolongation)
    with pytest.raises(IndefiniteMatrix) as err:
        solve(system)
    assert str(err.value) == message


def test_an_indefinite_matrix_with_a_zero_rhs_still_raises():
    for config, message in [(CG, "matrix has a nonpositive diagonal entry"), (DENSE, "dense factorization failed")]:
        with pytest.raises(IndefiniteMatrix, match=message):
            solve((sp.diags([1.0, -2.0, 3.0]).tocsr(), np.zeros(3)), config)


def test_a_coarse_level_without_strong_couplings_ends_in_jacobi(monkeypatch):
    # the given P leaves more than the direct limit, and aggregation of that
    # diagonal level finds no coarser one, so B = D^-1 + I D^-1 I^T
    calls = []
    aggregate = robinfem.solver._smoothed_aggregation
    monkeypatch.setattr(robinfem.solver, "_smoothed_aggregation", lambda *a: calls.append(a) or aggregate(*a))
    n = robinfem.solver._DIRECT_LIMIT + 1
    A = sp.diags(np.linspace(1.0, 2.0, n)).tocsr()
    x, report = solve(SparseSystem(A, np.ones(n), None, sp.identity(n, format="csr")))
    assert len(calls) == 1 and calls[0][0].shape == (n, n)
    assert report.coarse_dofs == 0 and report.iterations == 1
    np.testing.assert_allclose(x, 1.0 / A.diagonal(), rtol=1e-14)


@pytest.mark.parametrize("matrix", [
    np.array([[2.0, np.nan], [np.nan, 2.0]]),
    sp.csr_matrix(np.array([[2.0, np.inf], [np.inf, 2.0]])),
    np.ones((2, 3)),
    sp.csr_matrix(np.ones((3, 2))),
    np.array([[1.0 + 1.0j, 0.0], [0.0, 1.0]]),
], ids=["nan", "inf", "2x3", "3x2", "complex"])
def test_min_eigenvalue_rejects_what_solve_rejects(matrix):
    # unchecked, a nan returned 0.0 and a 2x3 matrix raised a numpy broadcast error
    with pytest.raises(InvalidParameter, match="the matrix"):
        min_eigenvalue_dense(matrix)
    with pytest.raises(InvalidParameter, match="the matrix"):
        solve((matrix, np.ones(matrix.shape[0])))


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1.0, 1.0], [1.0, 1.0]], "Factor is exactly singular"),
        ([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 1.0]], "needs an off-diagonal pivot"),
    ],
    ids=["singular", "off-diagonal pivot"],
)
def test_the_bottom_factor_refuses_a_matrix_it_cannot_prove_spd(rows, message):
    # the identity prolongation makes the matrix itself the factored level-1 matrix P^T A P
    n = len(rows)
    system = SparseSystem(sp.csr_matrix(np.array(rows)), np.ones(n), None, sp.identity(n, format="csr"))
    with pytest.raises(IndefiniteMatrix, match=message):
        solve(system)
