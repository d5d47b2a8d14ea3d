# Convergence study on the unit disk.
#
# Solves the Robin problem for a smooth manufactured solution on a ladder
# of inscribed polygonal meshes and prints the experimental orders of
# convergence.  With piecewise linears both schemes converge at O(h) in
# the energy norm and O(h^2) in L2; the boundary treatment keeps those
# rates uniform in the Robin parameter epsilon.
#
# The Nitsche CSV and SVG go to a new temporary directory, whose path is
# printed; nothing is written to the current directory.
#
# Usage: python demos/convergence_study.py [--levels N] [--epsilon E]

import argparse
import os
import tempfile

from robinfem import Method, Scheme, StudyConfig, run_convergence, write_csv, write_svg


def print_table(label, reports):
    print(f"\n{label}")
    print(f"{'level':>5} {'h_max':>10} {'dofs':>8} {'err_E':>12} {'err_L2':>12} {'eoc_E':>7} {'eoc_L2':>7}")
    for r in reports:
        ee = f"{r.eoc_energy:.2f}" if r.eoc_energy is not None else "-"
        el = f"{r.eoc_l2:.2f}" if r.eoc_l2 is not None else "-"
        print(
            f"{r.level:>5} {r.h_max:>10.4e} {r.dof_count:>8} "
            f"{r.err_energy:>12.4e} {r.err_l2:>12.4e} {ee:>7} {el:>7}"
        )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--epsilon", type=float, default=1.0)
    args = ap.parse_args()
    out_dir = tempfile.mkdtemp(prefix="robinfem-demo-")

    for method in (Method.NITSCHE, Method.SIPDG):
        scheme = Scheme(method, degree=1, epsilon=args.epsilon, gamma=0.1)
        reports = run_convergence(
            StudyConfig(problem="sinsin", scheme=scheme, levels=args.levels)
        )
        print_table(f"sinsin on the unit disk, {method.value}, P1, eps={args.epsilon:g}", reports)
        if method is Method.NITSCHE:
            write_csv(reports, os.path.join(out_dir, "convergence_nitsche.csv"))
            write_svg(reports, os.path.join(out_dir, "convergence_nitsche.svg"))
            print(f"\nwrote convergence_nitsche.csv and convergence_nitsche.svg to {out_dir}")

    # quadratic elements on a radially symmetric solution recover O(h^2)
    # in the energy norm despite the polygonal boundary
    scheme = Scheme(Method.NITSCHE, degree=2, epsilon=args.epsilon, gamma=0.1)
    reports = run_convergence(
        StudyConfig(problem="radial_exp", scheme=scheme, levels=args.levels)
    )
    print_table("radial_exp on the unit disk, nitsche, P2", reports)


if __name__ == "__main__":
    main()
