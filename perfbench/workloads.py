"""The benchmark's workloads, their reference checks and their layer probes.

Every workload is driven only through robinfem's public API, imported
from the checkout's ``src/``.  Why each workload exists is written in
NOTES.md next to this file.

One *operation* is one ladder level or one sweep case; the checks turn
each operation into either ``None`` (correct) or a failure reason.
"""

import contextlib
import csv
import dataclasses
import importlib
import json
import math
import os
import random
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE_PATH = HERE / "reference.json"


class MissingSource(RuntimeError):
    """The checkout has no robinfem sources to benchmark."""


def use_checkout_source():
    """Put the checkout's src/ first on sys.path; refuse to run without it."""
    if not (SRC / "robinfem" / "__init__.py").is_file():
        raise MissingSource(f"no robinfem package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_robinfem():
    """Import robinfem afresh, so a timed set-up pays for the import.

    numpy and scipy stay loaded: their import cost is not the program's.
    """
    for name in [n for n in sys.modules if n == "robinfem" or n.startswith("robinfem.")]:
        del sys.modules[name]
    rf = importlib.import_module("robinfem")
    importlib.import_module("robinfem.cli")
    if not Path(rf.__file__).resolve().is_relative_to(SRC.resolve()):
        raise MissingSource(f"robinfem was imported from {rf.__file__}, not {SRC}")
    return rf


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def count_edges(triangles):
    """Number of undirected edges, counted from the triangle list alone."""
    tris = np.asarray(triangles, dtype=np.int64)
    pairs = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    return int(np.unique(pairs[:, 0] * (int(tris.max()) + 1) + pairs[:, 1]).size)


# Seconds the calibration kernel takes on the machine the reported times
# refer to (its median on a 2-core x86_64 sandbox in a quiet phase).
CALIBRATION_REFERENCE_S = 0.12


def calibrate():
    """Seconds for a fixed mix of interpreter and numpy work.

    Shared 2-core sandboxes alternate, every few seconds to minutes,
    between phases whose speeds differ by up to 1.7x, by similar factors
    for interpreter, numpy and sparse code.  The kernel is timed right
    before and after every timed segment, and the segment is scaled by
    how much slower or faster the machine ran than
    CALIBRATION_REFERENCE_S.  It does not touch robinfem, so a change to
    the program moves the scaled times as much as the raw ones.
    """
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i
    keys = np.sort(np.random.default_rng(0).permutation(1 << 20))
    values = np.linspace(0.0, 1.0, keys.size)
    for _ in range(4):
        values = np.sqrt(values * values + 1.0)
    return time.perf_counter() - start


class Meter:
    """Times segments of work, each as (raw seconds, reference seconds)."""

    def __init__(self):
        self.before = calibrate()

    def __call__(self, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        after = calibrate()
        speed = CALIBRATION_REFERENCE_S / (0.5 * (self.before + after))
        self.before = after
        return result, raw, raw * speed


def _relative_miss(value, ref, tol):
    return not (math.isfinite(value) and abs(value - ref) <= tol * abs(ref))


@dataclasses.dataclass
class CallLog:
    """What the traced path produced, kept until the layer probes have run."""

    meshes: list = dataclasses.field(default_factory=list)
    assembled: list = dataclasses.field(default_factory=list)
    reported: list = dataclasses.field(default_factory=list)
    keys: dict = dataclasses.field(default_factory=dict)
    studied: bool = False


def _case_key(mesh, scheme):
    return {"level": mesh.level, "epsilon": scheme.epsilon, "gamma": scheme.gamma}


def path_functions(rf, log):
    """(span name, public function, observer) for every call on a workload's path."""

    def on_mesh(span, args, result):
        for mesh in result if isinstance(result, list) else [result]:
            if all(mesh is not m for m in log.meshes):
                log.meshes.append(mesh)
        if not isinstance(result, list):
            span["level"] = result.level

    def on_assemble(span, args, system):
        mesh, scheme, data = args[:3]
        key = _case_key(mesh, scheme)
        span.update(key, dofs=int(system.dofmap.n_dofs), nnz=int(system.matrix.nnz))
        log.keys[id(system)] = key
        log.assembled.append((mesh, scheme, data))

    def on_solve(span, args, result):
        span.update(log.keys.get(id(args[0]), {}))
        span.update(iterations=int(result[1].iterations), residual=float(result[1].residual))

    def on_study(span, args, reports):
        log.studied = True

    def on_report(span, args, report):
        span.update(_case_key(args[0], args[1]))
        log.reported.append(args[:5])

    return [
        ("study.run_convergence", rf.study.run_convergence, on_study),
        ("study.write_csv", rf.study.write_csv, None),
        ("study.write_svg", rf.study.write_svg, None),
        ("mesh.generate", rf.mesh.refinement_sequence, on_mesh),
        ("mesh.generate", rf.mesh.generate_disk_mesh, on_mesh),
        ("assembly.assemble", rf.assembly.assemble, on_assemble),
        ("solver.solve", rf.solver.solve, on_solve),
        ("analysis.error_report", rf.analysis.error_report, on_report),
    ]


def probe_layers(rf, tracer, log, workload):
    """Time each layer by a direct call on the inputs the traced path used.

    ``assemble`` and ``error_report`` are repeated part by part, and
    every mesh's edge topology is rebuilt from its arrays.  Layers the
    path never calls are probed so that every workload reports them: the
    interior-penalty form (for Nitsche schemes) once per mesh with the
    SIPDG scheme of the same degree, and the study entry point (for the
    sweep) as a two-level study of the workload's problem and degree.
    These probe spans carry ``probe=True``.
    """
    for mesh in log.meshes:
        with tracer.span("mesh.topology", level=mesh.level,
                         triangles=len(mesh.triangles), edges=count_edges(mesh.triangles)):
            rf.mesh.build_edge_topology(mesh.vertices, mesh.triangles)
    sipdg_meshes = []
    for mesh, scheme, data in log.assembled:
        key = _case_key(mesh, scheme)
        basis = rf.felib.reference_basis(scheme.degree)
        with tracer.span("felib.dofmap", **key) as span:
            dofmap = rf.felib.build_dofmap(mesh, scheme.degree, continuous=scheme.continuous)
        span["dofs"] = int(dofmap.n_dofs)
        with tracer.span("assembly.volume", **key):
            rf.assembly.assemble_volume(mesh, dofmap, basis)
        with tracer.span("assembly.boundary", **key):
            rf.assembly.assemble_nitsche_boundary(mesh, dofmap, basis, scheme)
        if scheme.method is rf.Method.SIPDG:
            sipdg_meshes.append(mesh)
            with tracer.span("assembly.interior_penalty", **key):
                rf.assembly.assemble_interior_penalty(mesh, dofmap, basis, scheme)
        with tracer.span("assembly.load", **key):
            rf.assembly.assemble_load(mesh, dofmap, basis, scheme, data)
    probed = []
    for mesh, scheme, _ in log.assembled:
        if any(mesh is m for m in sipdg_meshes + probed):
            continue
        probed.append(mesh)
        dg = rf.Scheme(rf.Method.SIPDG, degree=scheme.degree, epsilon=1.0, gamma=0.1)
        dofmap = rf.felib.build_dofmap(mesh, dg.degree, continuous=False)
        basis = rf.felib.reference_basis(dg.degree)
        with tracer.span("assembly.interior_penalty", level=mesh.level, probe=True):
            rf.assembly.assemble_interior_penalty(mesh, dofmap, basis, dg)
    for mesh, scheme, data, solution, dofmap in log.reported:
        key = _case_key(mesh, scheme)
        with tracer.span("analysis.energy_error", **key):
            rf.analysis.energy_error(mesh, scheme, data, solution, dofmap=dofmap)
        with tracer.span("analysis.l2_error", **key):
            rf.analysis.l2_error(mesh, data, solution, dofmap)
    if log.assembled and not log.studied:
        scheme = rf.Scheme(rf.Method.NITSCHE, degree=workload.degree, epsilon=1.0, gamma=0.1)
        config = rf.StudyConfig(problem=workload.problem, scheme=scheme, levels=2)
        OUT.mkdir(exist_ok=True)
        with tracer.span("study.run_convergence", probe=True):
            reports = rf.study.run_convergence(config)
        with tracer.span("study.write_csv", probe=True):
            rf.study.write_csv(reports, OUT / f"{workload.name}-probe.csv")
        with tracer.span("study.write_svg", probe=True):
            rf.study.write_svg(reports, OUT / f"{workload.name}-probe.svg")


class Ladder:
    """``robinfem study`` on the 4·2^level disk ladder, called in process."""

    problem = "sinsin"
    degree = 1
    indefinite_ops = ()

    def __init__(self, name, scheme, levels):
        self.name = name
        self.scheme = scheme
        self.levels = levels
        self.csv_path = OUT / f"{name}.csv"
        self.svg_path = OUT / f"{name}.svg"

    def operations(self):
        return self.levels

    def prepare(self, rf, seed):
        rf.get_problem(self.problem).make_data(1.0)
        return {"rf": rf}

    def run(self, state, meter, tracer=None):
        """One study, metered as one segment.

        Returns (raw seconds, {segment: reference seconds}, exit code for the checker).
        """
        rf = state["rf"]
        argv = [
            "study", "--problem", self.problem, "--scheme", self.scheme,
            "--degree", str(self.degree), "--levels", str(self.levels),
            "--csv", str(self.csv_path), "--svg", str(self.svg_path),
        ]
        OUT.mkdir(exist_ok=True)
        self.csv_path.unlink(missing_ok=True)

        def study():
            span = tracer.span("cli.console_main") if tracer else contextlib.nullcontext()
            with span:
                return rf.cli.console_main(argv)

        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code, raw, ref = meter(study)
        return raw, {"study": ref}, code

    def check(self, state, code, reference):
        """One failure reason (or None) per ladder level."""
        ref = reference["workloads"][self.name]
        tol = reference["rel_tolerance"]
        if code != 0:
            return [f"robinfem study exited with {code}"] * self.levels
        with open(self.csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        outcome = []
        for level in range(self.levels):
            want = ref["levels"][level]
            row = rows[level] if level < len(rows) else None
            if row is None:
                outcome.append("level missing from the CSV")
            elif int(row["dofs"]) != want["dofs"]:
                outcome.append(f"dofs {row['dofs']} != {want['dofs']}")
            elif _relative_miss(float(row["err_energy"]), want["err_energy"], tol):
                outcome.append(f"err_energy {row['err_energy']} vs {want['err_energy']}")
            elif _relative_miss(float(row["err_L2"]), want["err_L2"], tol):
                outcome.append(f"err_L2 {row['err_L2']} vs {want['err_L2']}")
            else:
                outcome.append(None)
        if outcome[-1] is None and rows:
            window = ref["eoc_window"]
            eoc_e, eoc_l = float(rows[-1]["eoc_energy"]), float(rows[-1]["eoc_L2"])
            if not (window["energy"][0] <= eoc_e <= window["energy"][1]
                    and window["l2"][0] <= eoc_l <= window["l2"][1]):
                outcome[-1] = f"finest EOC ({eoc_e:.3f}, {eoc_l:.3f}) outside {window['source']}"
        return outcome


class Sweep:
    """ε-sweep of Nitsche P2 on one disk mesh built in set-up.

    The case ε=1, γ=100 has γ far above the coercivity threshold and
    must raise IndefiniteMatrix.
    """

    problem = "radial_exp"
    degree = 2
    cases = ((1e-6, 0.1), (1e-3, 0.1), (1.0, 0.1), (1e3, 0.1), (1.0, 100.0))
    indefinite = (1.0, 100.0)
    indefinite_ops = (cases.index(indefinite),)

    def __init__(self, name, mesh_level):
        self.name = name
        self.mesh_level = mesh_level

    def operations(self):
        return len(self.cases)

    def prepare(self, rf, seed):
        """Problem data per ε and the one mesh; the seed orders the cases."""
        problem = rf.get_problem(self.problem)
        data = {eps: problem.make_data(eps) for eps in sorted({e for e, _ in self.cases})}
        mesh = rf.mesh.generate_disk_mesh(4 * 2**self.mesh_level, level=self.mesh_level)
        order = random.Random(seed).sample(self.cases, len(self.cases))
        return {"rf": rf, "data": data, "mesh": mesh, "order": order}

    def run(self, state, meter, tracer=None):
        """All cases in the seeded order, each metered as its own segment.

        Returns (raw seconds, {case: reference seconds}, per-case results).
        """
        rf, mesh = state["rf"], state["mesh"]

        def case(eps, gamma):
            scheme = rf.Scheme(rf.Method.NITSCHE, degree=self.degree, epsilon=eps, gamma=gamma)
            data = state["data"][eps]
            try:
                system = rf.assembly.assemble(mesh, scheme, data)
                solution, _ = rf.solver.solve(system)
                return rf.analysis.error_report(mesh, scheme, data, solution, system.dofmap)
            except Exception as exc:  # every case runs; the checker judges the exception
                return exc.with_traceback(None)  # frees the case's matrices now

        results, raw, segments = {}, 0.0, {}
        for eps, gamma in state["order"]:
            results[eps, gamma], case_raw, segments[eps, gamma] = meter(case, eps, gamma)
            raw += case_raw
        return raw, segments, results

    def check(self, state, results, reference):
        """One failure reason (or None) per case, in the canonical case order."""
        refs = reference["workloads"][self.name]["mesh_levels"][str(self.mesh_level)]
        tol = reference["rel_tolerance"]
        indefinite_error = state["rf"].IndefiniteMatrix
        outcome = []
        for (eps, gamma), want in zip(self.cases, refs):
            got = results[eps, gamma]
            if (eps, gamma) == self.indefinite:
                outcome.append(None if isinstance(got, indefinite_error)
                               else f"gamma={gamma} did not raise IndefiniteMatrix")
            elif isinstance(got, Exception):
                outcome.append("".join(traceback.format_exception_only(got)).strip())
            elif got.dof_count != want["dofs"]:
                outcome.append(f"dofs {got.dof_count} != {want['dofs']}")
            elif _relative_miss(got.err_energy, want["err_energy"], tol):
                outcome.append(f"err_energy {got.err_energy!r} vs {want['err_energy']!r}")
            elif _relative_miss(got.err_l2, want["err_L2"], tol):
                outcome.append(f"err_L2 {got.err_l2!r} vs {want['err_L2']!r}")
            else:
                outcome.append(None)
        return outcome


WORKLOADS = {
    w.name: w
    for w in (
        Ladder("ladder-nitsche-p1", "n", levels=5),
        Ladder("ladder-sipdg-p1", "dg", levels=4),
        Sweep("sweep-nitsche-p2", mesh_level=4),
    )
}
