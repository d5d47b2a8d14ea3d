"""Convergence studies: mesh ladder, solve, error table, plot.

run_single is the one pipeline for a level: mesh, assemble, solve,
error report, and the optional mesh and solution dumps.  run_convergence
runs it on each ladder level, keeping only the reports, so one level's
mesh and assembly memo are alive at a time, then adds the observed orders.

The CSV and SVG writers are deliberately boring: fixed column order,
fixed significant digits, LF line endings, no timestamps, so repeated
runs of the same study produce byte-identical files.  Like every
artifact, they are written atomically through one writer.
"""

import math
from dataclasses import dataclass, field

from ._atomic import write_lines
from .analysis import ErrorReport, eoc, error_report
from .assembly import Scheme, assemble
from .errors import DegenerateSequence, InvalidParameter, as_path, check_type, is_count
from .mesh import level_mesh, write_mesh
from .problems import get_problem
from .solver import SolverConfig, solve

__all__ = ["StudyConfig", "run_convergence", "run_single", "write_csv", "write_svg"]

CSV_HEADER = "level,h_max,dofs,err_energy,err_L2,eoc_energy,eoc_L2"


@dataclass(frozen=True)
class StudyConfig:
    problem: str
    scheme: Scheme
    levels: int = 4
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        get_problem(self.problem)  # raises InvalidParameter unless a known problem name
        check_type(self.scheme, Scheme, "scheme")
        check_type(self.solver, SolverConfig, "solver")
        if not is_count(self.levels, 2):
            raise InvalidParameter(f"a study needs an integer of at least 2 levels, got {self.levels!r}")


def run_convergence(config, mesh_out=None):
    """Solve the problem on the refinement ladder; returns ErrorReports.

    mesh_out, if given, receives the finest mesh once its level is solved.
    """
    check_type(config, StudyConfig, "the study config")
    _check_paths(mesh_out)
    reports = []
    for level in range(config.levels):  # one level's mesh, and its assembly memo, at a time
        finest = level == config.levels - 1
        reports.append(run_single(config.problem, config.scheme, level, config.solver, mesh_out if finest else None)[-1])
    rates_e = eoc([(r.h_max, r.err_energy) for r in reports])
    rates_l = eoc([(r.h_max, r.err_l2) for r in reports])
    for r, rate_e, rate_l in zip(reports[1:], rates_e, rates_l):
        r.eoc_energy, r.eoc_l2 = rate_e, rate_l
    return reports


def run_single(problem_name, scheme, level=0, solver=None, mesh_out=None, solution_out=None):
    """One mesh, one solve.  Returns (mesh, system, solution, report)."""
    check_type(scheme, Scheme, "scheme")
    _check_paths(mesh_out, solution_out)
    problem = get_problem(problem_name)
    mesh = level_mesh(problem.domain, level)
    data = problem.make_data(scheme.epsilon)
    system = assemble(mesh, scheme, data)
    solution, _ = solve(system, solver)
    report = error_report(mesh, scheme, data, solution, system.dofmap)
    if mesh_out is not None:
        write_mesh(mesh, mesh_out)
    if solution_out is not None:
        write_lines(solution_out, (f"{i} {v:.17g}" for i, v in enumerate(solution)))
    return mesh, system, solution, report


def _check_paths(*paths):
    """Raise InvalidParameter, before any work, unless each output path that is not None is one as_path takes."""
    for path in paths:
        if path is not None:
            as_path(path)


def _fmt(value):
    return "" if value is None else f"{value:.10g}"


def _check_reports(reports):
    """reports as a list; InvalidParameter unless they are iterable and each is an ErrorReport."""
    try:
        reports = list(reports)
    except TypeError:
        raise InvalidParameter(f"reports must be a sequence of ErrorReport, got {reports!r}") from None
    for r in reports:
        check_type(r, ErrorReport, "each report")
    return reports


def write_csv(reports, path):
    """Convergence table, one row per level, 10 significant digits.  Raises
    InvalidParameter unless every report is an ErrorReport."""
    reports = _check_reports(reports)
    rows = (
        f"{r.level},{_fmt(r.h_max)},{r.dof_count},{_fmt(r.err_energy)},{_fmt(r.err_l2)},"
        f"{_fmt(r.eoc_energy)},{_fmt(r.eoc_l2)}"
        for r in reports
    )
    write_lines(path, [CSV_HEADER, *rows])


def write_svg(reports, path):
    """Log-log convergence plot.

    Exactly two data polylines (energy and L2 error) and two dashed
    reference lines with slopes 1 and 2, anchored at the coarsest level.
    Raises InvalidParameter unless there are at least two reports, each an
    ErrorReport, and DegenerateSequence, as eoc does, unless every h and error is a
    positive finite number and h decreases, and also where a reference
    line underflows to 0 at the finest h.
    """
    reports = _check_reports(reports)
    if len(reports) < 2:
        raise InvalidParameter("plot needs at least two levels")
    for error in ("err_energy", "err_l2"):
        eoc([(r.h_max, getattr(r, error)) for r in reports])
    width, height = 640.0, 480.0
    left, right, top, bottom = 80.0, 20.0, 20.0, 60.0
    hs = [r.h_max for r in reports]
    xs = [math.log10(h) for h in hs]
    series = [  # legend, colour, decades of the errors
        ("energy error", "#1f77b4", [math.log10(r.err_energy) for r in reports]),
        ("L2 error", "#d62728", [math.log10(r.err_l2) for r in reports]),
    ]

    def slope_decade(p, h):  # of the slope-p line through 0.7 times the coarsest energy error
        value = 0.7 * reports[0].err_energy * (h / hs[0]) ** p
        if not value > 0.0:
            raise DegenerateSequence(f"the slope-{p} reference line underflows to 0 at h={h}")
        return math.log10(value)

    slopes = [(dash, [slope_decade(p, h) for h in (hs[0], hs[-1])]) for p, dash in ((1, "6 4"), (2, "2 3"))]

    def padded(decades):  # the range, widened by 5 % at each end
        lo, hi = min(decades), max(decades)
        return lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo)

    x_min, x_max = padded(xs)
    decades = [k for _, _, ks in series for k in ks] + [k for _, ref in slopes for k in ref]
    y_min, y_max = padded(decades)

    def sx(k):  # the decade k = log10(h) on the page
        return left + (k - x_min) / (x_max - x_min) * (width - left - right)

    def sy(k):
        return height - bottom - (k - y_min) / (y_max - y_min) * (height - top - bottom)

    def text(x, y, body, attributes, size=13):
        return f'<text x="{x:.2f}" y="{y:.2f}" font-family="sans-serif" font-size="{size}" {attributes}>{body}</text>'

    tick_cmds, labels = [], []
    for k in range(math.ceil(x_min), math.floor(x_max) + 1):
        tick_cmds.append(f"M {sx(k):.2f} {height - bottom:.2f} v 6")
        labels.append(text(sx(k), height - bottom + 22, f"1e{k}", 'text-anchor="middle"'))
    for k in range(math.ceil(y_min), math.floor(y_max) + 1):
        tick_cmds.append(f"M {left:.2f} {sy(k):.2f} h -6")
        labels.append(text(left - 10, sy(k) + 4, f"1e{k}", 'text-anchor="end"'))
    frame = f"M {left:.2f} {top:.2f} H {width - right:.2f} V {height - bottom:.2f} H {left:.2f} Z"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
        f'<path d="{frame} {" ".join(tick_cmds)}" fill="none" stroke="#000000"/>',
        *labels,
    ]
    for dash, ref in slopes:
        parts.append(
            f'<line x1="{sx(xs[0]):.2f}" y1="{sy(ref[0]):.2f}" x2="{sx(xs[-1]):.2f}" y2="{sy(ref[-1]):.2f}" '
            f'stroke="#888888" stroke-dasharray="{dash}"/>'
        )
    for _, colour, ks in series:
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ks))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{colour}" stroke-width="2"/>')
    for row, (legend, colour, _) in enumerate(series, start=1):
        parts.append(text(width - right - 150.0, top + 20 * row, legend, f'fill="{colour}"'))
    parts.append(text((left + width - right) / 2, height - 12, "h_max", 'text-anchor="middle"', size=14))
    parts.append("</svg>")
    write_lines(path, parts)
