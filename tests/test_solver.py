import math

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
    # dense path reports the extreme eigenvalue for small systems
    _, report = solve((A, b), DENSE)
    assert abs(report.min_eigenvalue - 1.0) < 1e-12


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
    mesh = generate_disk_mesh(2)
    system = assemble(mesh, Scheme(Method.NITSCHE), get_problem("sinsin").make_data(1.0))
    lam = min_eigenvalue_dense(system.matrix)
    assert lam > 0.0
    assert min_eigenvalue_dense(system) == lam
    assert min_eigenvalue_dense((system.matrix, system.rhs)) == lam
    with pytest.raises(InvalidParameter):
        solve(system.matrix)  # a bare matrix has no right-hand side


def test_dense_eigenvalue_guard():
    with pytest.raises(TooLarge):
        min_eigenvalue_dense(sp.identity(2001, format="csr"))


def test_solver_config_validation():
    with pytest.raises(InvalidParameter):
        SolverConfig(rel_tolerance=0.0)
    with pytest.raises(InvalidParameter):
        SolverConfig(rel_tolerance=1.0)
    with pytest.raises(InvalidParameter):
        SolverConfig(max_iterations=0)
    with pytest.raises(InvalidParameter):
        solve((sp.identity(3, format="csr"), np.ones(4)))


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
