# File formats and solver paths.
#
# Everything the library writes is plain text and byte-reproducible:
# meshes, sparse matrices in coordinate form, solution vectors, CSV
# tables, SVG plots.  This script round-trips a mesh through its file
# format, exports the assembled system, cross-checks the conjugate
# gradient solution against a dense factorization, and compares the
# multilevel hierarchy that a bare (matrix, rhs) pair gets with the one
# of an assembled system.

import os
import tempfile

import numpy as np

from robinfem import (
    Method,
    Scheme,
    SolverConfig,
    SolverMethod,
    assemble,
    generate_disk_mesh,
    get_problem,
    min_eigenvalue_dense,
    read_mesh,
    solve,
    write_matrix,
    write_mesh,
)


def main():
    mesh = generate_disk_mesh(4)
    data = get_problem("sinsin").make_data(1.0)
    system = assemble(mesh, Scheme(Method.NITSCHE), data)

    with tempfile.TemporaryDirectory() as tmp:
        mesh_path = os.path.join(tmp, "disk.mesh")
        write_mesh(mesh, mesh_path)
        clone = read_mesh(mesh_path)
        same = np.array_equal(clone.vertices, mesh.vertices) and np.array_equal(
            clone.triangles, mesh.triangles
        )
        size = os.path.getsize(mesh_path)
        print(f"mesh file: {size} bytes, round-trip identical: {same}")

        matrix_path = os.path.join(tmp, "system.mtx")
        write_matrix(system.matrix, matrix_path)
        n_lines = sum(1 for _ in open(matrix_path))
        print(f"matrix file: {system.matrix.nnz} stored entries, {n_lines} lines")

    x_cg, rep_cg = solve(system, SolverConfig())
    x_dn, _ = solve(system, SolverConfig(method=SolverMethod.DENSE))
    gap = np.max(np.abs(x_cg - x_dn)) / np.max(np.abs(x_dn))
    print(f"\ncg: {rep_cg.iterations} iterations, residual {rep_cg.residual:.2e}")
    print(f"dense: min eigenvalue {min_eigenvalue_dense(system.matrix):.3e}")
    print(f"relative gap between the two solutions: {gap:.2e}")

    # rerunning the same solve gives the same bytes, not just the same values
    x_again, _ = solve(system, SolverConfig())
    print(f"cg rerun bitwise identical: {np.array_equal(x_cg, x_again)}")

    # the multilevel preconditioner adds to Jacobi a hierarchy of coarser
    # levels, with a direct solve of at most 5000 dofs at the bottom
    # ("coarse" is its size, 0 for none).  An assembled system starts the
    # hierarchy with continuous P1 on the same mesh; a bare (matrix, rhs)
    # pair, like continuous P1 itself, has only A to go on: smoothed
    # aggregation above 5000 dofs, and exactly Jacobi up to that
    print("\nCG iterations of a (matrix, rhs) pair and of the assembled system:")
    print(f"{'scheme':11s}  {'rings':>5s}  {'dofs':>6s}  {'pair coarse':>11s}  {'iterations':>10s}  "
          f"{'system coarse':>13s}  {'iterations':>10s}")
    for method, degree in ((Method.NITSCHE, 1), (Method.SIPDG, 1), (Method.NITSCHE, 2)):
        for rings in (8, 16, 32):
            system = assemble(generate_disk_mesh(rings), Scheme(method, degree=degree), data)
            _, rep_pair = solve((system.matrix, system.rhs))
            _, rep_system = solve(system)
            print(
                f"{method.value + ' P' + str(degree):11s}  {rings:5d}  {system.dofmap.n_dofs:6d}  "
                f"{rep_pair.coarse_dofs:11d}  {rep_pair.iterations:10d}  "
                f"{rep_system.coarse_dofs:13d}  {rep_system.iterations:10d}"
            )


if __name__ == "__main__":
    main()
