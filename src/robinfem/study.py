"""Convergence studies: mesh ladder, solve, error table, plot.

The CSV and SVG writers are deliberately boring: fixed column order,
fixed significant digits, LF line endings, no timestamps, so repeated
runs of the same study produce byte-identical files.
"""

import contextlib
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Optional

from .analysis import eoc, error_report
from .assembly import Scheme, assemble
from .errors import InvalidParameter
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
        if self.levels < 2:
            raise InvalidParameter(f"a study needs at least 2 levels, got {self.levels}")


def run_convergence(config):
    """Solve the problem on the refinement ladder; returns ErrorReports."""
    problem = get_problem(config.problem)
    data = problem.make_data(config.scheme.epsilon)
    reports = []
    for level in range(config.levels):  # one level's mesh, and its assembly memo, at a time
        mesh = level_mesh(problem.domain, level)
        system = assemble(mesh, config.scheme, data)
        solution, _ = solve(system, config.solver)
        reports.append(error_report(mesh, config.scheme, data, solution, system.dofmap))
    pairs_e = [(r.h_max, r.err_energy) for r in reports]
    pairs_l = [(r.h_max, r.err_l2) for r in reports]
    rates_e = eoc(pairs_e)
    rates_l = eoc(pairs_l)
    for i, r in enumerate(reports[1:]):
        r.eoc_energy = rates_e[i]
        r.eoc_l2 = rates_l[i]
    return reports


def run_single(problem_name, scheme, level=0, solver=None, mesh_out=None, solution_out=None):
    """One mesh, one solve.  Returns (mesh, system, solution, report)."""
    problem = get_problem(problem_name)
    mesh = level_mesh(problem.domain, level)
    data = problem.make_data(scheme.epsilon)
    system = assemble(mesh, scheme, data)
    solution, _ = solve(system, solver if solver is not None else SolverConfig())
    report = error_report(mesh, scheme, data, solution, system.dofmap)
    if mesh_out:
        write_mesh(mesh, mesh_out)
    if solution_out:
        lines = [f"{i} {v:.17g}" for i, v in enumerate(solution)]
        _atomic_write(solution_out, "\n".join(lines) + "\n")
    return mesh, system, solution, report


def _atomic_write(path, text):
    """Write through a unique temporary file next to ``path``, then rename."""
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=f"{name}.", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates the file private
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _fmt(value):
    return f"{value:.10g}"


def write_csv(reports, path):
    """Convergence table, one row per level, 10 significant digits."""
    lines = [CSV_HEADER]
    for r in reports:
        eoc_e = "" if r.eoc_energy is None else _fmt(r.eoc_energy)
        eoc_l = "" if r.eoc_l2 is None else _fmt(r.eoc_l2)
        lines.append(
            f"{r.level},{_fmt(r.h_max)},{r.dof_count},"
            f"{_fmt(r.err_energy)},{_fmt(r.err_l2)},{eoc_e},{eoc_l}"
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def write_svg(reports, path):
    """Log-log convergence plot.

    Exactly two data polylines (energy and L2 error) and two dashed
    reference lines with slopes 1 and 2, anchored at the coarsest level.
    """
    if len(reports) < 2:
        raise InvalidParameter("plot needs at least two levels")
    width, height = 640.0, 480.0
    left, right, top, bottom = 80.0, 20.0, 20.0, 60.0
    hs = [r.h_max for r in reports]
    h0 = hs[0]
    ref1 = [0.7 * reports[0].err_energy * (h / h0) for h in hs]
    ref2 = [0.7 * reports[0].err_energy * (h / h0) ** 2 for h in hs]
    xs = [math.log10(h) for h in hs]
    all_errs = (
        [r.err_energy for r in reports]
        + [r.err_l2 for r in reports]
        + [ref1[-1], ref2[-1], ref1[0]]
    )
    ys = [math.log10(e) for e in all_errs if e > 0.0]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_pad = 0.05 * (x_max - x_min)
    y_pad = 0.05 * (y_max - y_min)
    x_min, x_max = x_min - x_pad, x_max + x_pad
    y_min, y_max = y_min - y_pad, y_max + y_pad

    def sx(h):
        t = (math.log10(h) - x_min) / (x_max - x_min)
        return left + t * (width - left - right)

    def sy(e):
        t = (math.log10(e) - y_min) / (y_max - y_min)
        return height - bottom - t * (height - top - bottom)

    def poly(points):
        return " ".join(f"{sx(h):.2f},{sy(e):.2f}" for h, e in points)

    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    parts.append(f'<rect width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>')
    frame = (
        f"M {left:.2f} {top:.2f} H {width - right:.2f} V {height - bottom:.2f} "
        f"H {left:.2f} Z"
    )
    tick_cmds = []
    tick_text = []
    for k in range(math.ceil(x_min), math.floor(x_max) + 1):
        px = left + (k - x_min) / (x_max - x_min) * (width - left - right)
        tick_cmds.append(f"M {px:.2f} {height - bottom:.2f} v 6")
        tick_text.append(
            f'<text x="{px:.2f}" y="{height - bottom + 22:.2f}" '
            f'font-family="sans-serif" font-size="13" text-anchor="middle">1e{k}</text>'
        )
    for k in range(math.ceil(y_min), math.floor(y_max) + 1):
        py = height - bottom - (k - y_min) / (y_max - y_min) * (height - top - bottom)
        tick_cmds.append(f"M {left:.2f} {py:.2f} h -6")
        tick_text.append(
            f'<text x="{left - 10:.2f}" y="{py + 4:.2f}" '
            f'font-family="sans-serif" font-size="13" text-anchor="end">1e{k}</text>'
        )
    parts.append(
        f'<path d="{frame} {" ".join(tick_cmds)}" fill="none" stroke="#000000"/>'
    )
    parts.extend(tick_text)
    parts.append(
        f'<line x1="{sx(hs[0]):.2f}" y1="{sy(ref1[0]):.2f}" '
        f'x2="{sx(hs[-1]):.2f}" y2="{sy(ref1[-1]):.2f}" '
        f'stroke="#888888" stroke-dasharray="6 4"/>'
    )
    parts.append(
        f'<line x1="{sx(hs[0]):.2f}" y1="{sy(ref2[0]):.2f}" '
        f'x2="{sx(hs[-1]):.2f}" y2="{sy(ref2[-1]):.2f}" '
        f'stroke="#888888" stroke-dasharray="2 3"/>'
    )
    energy_pts = [(r.h_max, r.err_energy) for r in reports]
    l2_pts = [(r.h_max, r.err_l2) for r in reports]
    parts.append(
        f'<polyline points="{poly(energy_pts)}" fill="none" '
        f'stroke="#1f77b4" stroke-width="2"/>'
    )
    parts.append(
        f'<polyline points="{poly(l2_pts)}" fill="none" '
        f'stroke="#d62728" stroke-width="2"/>'
    )
    legend_x = width - right - 150.0
    parts.append(
        f'<text x="{legend_x:.2f}" y="{top + 20:.2f}" font-family="sans-serif" '
        f'font-size="13" fill="#1f77b4">energy error</text>'
    )
    parts.append(
        f'<text x="{legend_x:.2f}" y="{top + 40:.2f}" font-family="sans-serif" '
        f'font-size="13" fill="#d62728">L2 error</text>'
    )
    parts.append(
        f'<text x="{(left + width - right) / 2:.2f}" y="{height - 12:.2f}" '
        f'font-family="sans-serif" font-size="14" text-anchor="middle">h_max</text>'
    )
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")
