import numpy as np
import pytest
import scipy.sparse as sp

from robinfem import (
    IndefiniteMatrix,
    InvalidParameter,
    NotConverged,
    Preconditioner,
    Scheme,
    Method,
    SolverConfig,
    SolverMethod,
    TooLarge,
    assemble,
    generate_disk_mesh,
    get_problem,
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
