"""Command line front end.

Exit codes: 0 on success; 2 when the linear solver fails (NotConverged,
IndefiniteMatrix); 1 for bad flags, any other library error
(RobinFemError: unknown problem, invalid parameter, bad mesh, ...) and
any OSError.  Each error is one line on stderr, never a traceback.
"""

import argparse
import sys

from .analysis import ErrorReport
from .assembly import Method, Scheme, write_matrix
from .errors import IndefiniteMatrix, NotConverged, RobinFemError
from .problems import list_problems
from .solver import SolverConfig, SolverMethod
from .study import StudyConfig, _check_paths, run_convergence, run_single, write_csv, write_svg

_SCHEMES = {"n": Method.NITSCHE, "dg": Method.SIPDG}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; config errors are 1 here
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_scheme_flags(parser):
    parser.add_argument("--problem", required=True, help="benchmark problem name")
    parser.add_argument("--scheme", choices=sorted(_SCHEMES), default="n",
                        help="n: continuous Nitsche-type, dg: interior penalty")
    parser.add_argument("--degree", type=int, choices=(1, 2), default=1)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--gamma", type=float, default=0.1)
    parser.add_argument("--solver", choices=("cg", "dense"), default="cg")
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="relative residual tolerance for cg")


def _print_report(report: ErrorReport):
    eoc_e = "" if report.eoc_energy is None else f"  eoc_E={report.eoc_energy:6.3f}"
    eoc_l = "" if report.eoc_l2 is None else f"  eoc_L2={report.eoc_l2:6.3f}"
    print(
        f"level {report.level}  h={report.h_max:.5f}  dofs={report.dof_count:7d}  "
        f"err_E={report.err_energy:.6e}  err_L2={report.err_l2:.6e}{eoc_e}{eoc_l}"
    )


def build_parser():
    parser = _Parser(prog="robinfem", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    study = sub.add_parser("study",
                           help="run a convergence study on a mesh ladder")
    _add_scheme_flags(study)
    study.add_argument("--levels", type=int, default=4)
    study.add_argument("--csv", metavar="PATH", help="write the convergence table")
    study.add_argument("--svg", metavar="PATH", help="write the log-log plot")
    study.add_argument("--mesh-out", metavar="PATH", help="write the finest mesh")

    single = sub.add_parser("single",
                            help="solve once on a single mesh level")
    _add_scheme_flags(single)
    single.add_argument("--level", type=int, default=0)
    single.add_argument("--mesh-out", metavar="PATH")
    single.add_argument("--matrix-out", metavar="PATH",
                        help="dump the assembled matrix as i j value triples")
    single.add_argument("--solution-out", metavar="PATH",
                        help="dump the solution vector as index value lines")

    sub.add_parser("list-problems",
                   help="list the available benchmark problems")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "list-problems":
        for name, domain, description in list_problems():
            print(f"{name:15s} {domain:12s} {description}")
        return 0
    _check_paths(*([args.csv, args.svg] if args.command == "study" else [args.matrix_out]))  # before any work
    scheme = Scheme(_SCHEMES[args.scheme], degree=args.degree, epsilon=args.epsilon, gamma=args.gamma)
    solver = SolverConfig(SolverMethod(args.solver), rel_tolerance=args.tol)
    if args.command == "study":
        reports = run_convergence(StudyConfig(args.problem, scheme, args.levels, solver), mesh_out=args.mesh_out)
        for report in reports:
            _print_report(report)
        if args.csv is not None:
            write_csv(reports, args.csv)
        if args.svg is not None:
            write_svg(reports, args.svg)
        return 0
    _, system, _, report = run_single(args.problem, scheme, args.level, solver, args.mesh_out, args.solution_out)
    _print_report(report)
    if args.matrix_out is not None:
        write_matrix(system.matrix, args.matrix_out)
    return 0


def console_main(argv=None):
    try:
        return main(argv)
    except (NotConverged, IndefiniteMatrix) as exc:
        print(f"robinfem: solver failure: {exc}", file=sys.stderr)
        return 2
    except (RobinFemError, OSError) as exc:
        print(f"robinfem: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(console_main())
