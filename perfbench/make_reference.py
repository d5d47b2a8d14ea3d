"""Regenerate perfbench/reference.json, the values the benchmark checks against.

    python3 perfbench/make_reference.py

Every ladder level and sweep case is solved three ways: with the default
Jacobi-preconditioned CG (the values stored), with unpreconditioned CG
and with a sparse direct LU solve.  The largest relative deviation of
err_energy / err_L2 between them is stored as ``observed_solver_spread``;
the checking tolerance ``rel_tolerance`` must stay well above it.
"""

import json
import sys

import scipy.sparse.linalg as spla

import workloads

REL_TOLERANCE = 1e-4
TOLERANCE_REASON = (
    "Errors of a solve at rel_tolerance=1e-10 depend on the preconditioner only "
    "through the algebraic error; across Jacobi-CG, plain CG and direct LU they "
    "differ by at most observed_solver_spread (below 1e-5, largest for err_L2 at "
    "eps=1e-6). 1e-4 leaves a factor above 10 for another SPD preconditioner, while "
    "a wrong form, quadrature rule, penalty or loose solve moves the errors by far more."
)
EOC_WINDOWS = {
    "ladder-nitsche-p1": {"source": "A1", "energy": [0.85, 1.15], "l2": [1.7, 2.3]},
    "ladder-sipdg-p1": {"source": "A2", "energy": [0.85, 1.15], "l2": [1.7, 2.3]},
}
SWEEP_MESH_LEVELS = (0, 1)  # coarse levels the benchmark's own tests run


def _solve_three_ways(rf, mesh, scheme, data):
    """Reference entry for one operation, plus its spread across solvers."""
    system = rf.assemble(mesh, scheme, data)
    entry = {"dofs": int(system.dofmap.n_dofs), "nnz": int(system.matrix.nnz)}
    try:
        solution, report = rf.solve(system)
    except rf.IndefiniteMatrix:
        entry["indefinite"] = True
        return entry, 0.0
    plain, _ = rf.solve(system, rf.SolverConfig(preconditioner=rf.Preconditioner.NONE))
    direct = spla.spsolve(system.matrix.tocsc(), system.rhs)
    errs = [rf.error_report(mesh, scheme, data, x, system.dofmap) for x in (solution, plain, direct)]
    spread = max(
        abs(getattr(e, attr) / getattr(errs[0], attr) - 1.0)
        for e in errs[1:]
        for attr in ("err_energy", "err_l2")
    )
    entry.update(
        indefinite=False,
        h_max=mesh.h_max,
        cg_iterations=int(report.iterations),
        err_energy=errs[0].err_energy,
        err_L2=errs[0].err_l2,
    )
    return entry, spread


def ladder_reference(rf, workload):
    problem = rf.get_problem(workload.problem)
    method = rf.Method.SIPDG if workload.scheme == "dg" else rf.Method.NITSCHE
    scheme = rf.Scheme(method, degree=workload.degree, epsilon=1.0, gamma=0.1)
    data = problem.make_data(1.0)
    levels, spread = [], 0.0
    for mesh in rf.refinement_sequence(problem.domain, workload.levels):
        entry, s = _solve_three_ways(rf, mesh, scheme, data)
        levels.append(dict(level=mesh.level, **entry))
        spread = max(spread, s)
    for attr, key in (("err_energy", "eoc_energy"), ("err_L2", "eoc_L2")):
        rates = rf.eoc([(e["h_max"], e[attr]) for e in levels])
        levels[0][key] = None
        for entry, rate in zip(levels[1:], rates):
            entry[key] = rate
    return {"eoc_window": EOC_WINDOWS[workload.name], "levels": levels}, spread


def sweep_reference(rf, workload):
    problem = rf.get_problem(workload.problem)
    by_level, spread = {}, 0.0
    for level in sorted(set(SWEEP_MESH_LEVELS) | {workload.mesh_level}):
        mesh = rf.generate_disk_mesh(4 * 2**level, level=level)
        cases = []
        for eps, gamma in workload.cases:
            scheme = rf.Scheme(rf.Method.NITSCHE, degree=workload.degree, epsilon=eps, gamma=gamma)
            entry, s = _solve_three_ways(rf, mesh, scheme, problem.make_data(eps))
            if entry["indefinite"] != ((eps, gamma) == workload.indefinite):
                raise SystemExit(f"level {level} eps={eps} gamma={gamma}: unexpected definiteness")
            cases.append(dict(epsilon=eps, gamma=gamma, **entry))
            spread = max(spread, s)
        by_level[str(level)] = cases
    return {"mesh_levels": by_level}, spread


def main():
    workloads.use_checkout_source()
    rf = workloads.import_robinfem()
    out = {
        "rel_tolerance": REL_TOLERANCE,
        "tolerance_reason": TOLERANCE_REASON,
        "observed_solver_spread": {},
        "workloads": {},
    }
    for name, workload in workloads.WORKLOADS.items():
        make = ladder_reference if isinstance(workload, workloads.Ladder) else sweep_reference
        out["workloads"][name], spread = make(rf, workload)
        out["observed_solver_spread"][name] = spread
        print(f"{name}: solver spread {spread:.2e}", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
