"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ladder-nitsche-p1 --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
measured with tracing off; with ``--trace 1`` they are the per-layer
ones, from a run that alternates untraced and traced repetitions and
writes its spans to ``.perfbench_out/``.  Workloads and metrics are
described in NOTES.md.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import tracing
import workloads

SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 15
SETUP_MIN_SECONDS = 0.5
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# span name summed per repetition -> per-layer metric
LAYER_TIMES = {
    "mesh.generate": "mesh.generate_s",
    "mesh.topology": "mesh.topology_s",
    "felib.dofmap": "felib.dofmap_s",
    "assembly.assemble": "assembly.assemble_s",
    "assembly.volume": "assembly.volume_s",
    "assembly.boundary": "assembly.boundary_s",
    "assembly.interior_penalty": "assembly.interior_penalty_s",
    "assembly.load": "assembly.load_s",
    "solver.solve": "solver.solve_s",
    "analysis.error_report": "analysis.error_report_s",
    "analysis.energy_error": "analysis.energy_error_s",
    "analysis.l2_error": "analysis.l2_error_s",
    "study.run_convergence": "study.run_convergence_s",
    "study.write_csv": "study.write_csv_s",
    "study.write_svg": "study.write_svg_s",
}
# span name, span attribute summed per repetition -> per-layer metric
LAYER_COUNTS = {
    ("mesh.topology", "triangles"): "mesh.triangles",
    ("mesh.topology", "edges"): "mesh.edges",
    ("felib.dofmap", "dofs"): "felib.dofs",
    ("assembly.assemble", "nnz"): "assembly.nnz",
    ("solver.solve", "iterations"): "solver.cg_iterations",
}


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
    }


class Run:
    """State of one benchmark process: set-ups, repetitions, checks, spans."""

    def __init__(self, workload, seed, reference, tracer=None):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.tracer = tracer
        self.log = workloads.CallLog()
        self.meter = None
        self.setup_times = []  # reference seconds (see workloads.calibrate)
        self.raw_setup_times = []
        self.walls = {False: [], True: []}  # {segment: reference seconds} per repetition
        self.raw_walls = {False: [], True: []}
        self.attempted = 0
        self.failures = []
        self.indefinite_expected = 0
        self.indefinite_detected = 0
        self.groups = []

    def _group(self, name):
        self.groups.append(name)
        self.tracer.group = name

    def _traced(self, rf):
        return self.tracer.patched(workloads.path_functions(rf, self.log))

    def _probe(self, rf):
        workloads.probe_layers(rf, self.tracer, self.log, self.workload)
        self.log = workloads.CallLog()
        self.meter = workloads.Meter()  # calibrate afresh after the probes' seconds

    def _setup_once(self):
        rf = workloads.import_robinfem()
        if not self.tracer:
            return self.workload.prepare(rf, self.seed)
        with self._traced(rf):
            return self.workload.prepare(rf, self.seed)

    def setup(self):
        """Import, problem data and (for the sweep) the mesh, timed and repeated."""
        workloads.import_robinfem()  # cold import, pyc compilation: not timed
        self.meter = workloads.Meter()
        while len(self.setup_times) < SETUP_MIN_REPEATS or (
            sum(self.raw_setup_times) < SETUP_MIN_SECONDS
            and len(self.setup_times) < SETUP_MAX_REPEATS
        ):
            if self.tracer:
                self._group(f"setup-{len(self.setup_times)}")
            gc.collect()  # the previous set-up's garbage is not this set-up's cost
            state, raw, ref = self.meter(self._setup_once)
            self.raw_setup_times.append(raw)
            self.setup_times.append(ref)
            if self.tracer:
                self._probe(state["rf"])
        return state

    def repetition(self, state, traced):
        """One full workload run, then its checks (and layer probes when traced)."""
        rf = state["rf"]
        self.attempted += self.workload.operations()
        gc.collect()  # earlier repetitions' garbage is not this one's cost
        began = time.perf_counter()
        try:
            if traced:
                self._group(f"rep-{self.attempted}")
                with self._traced(rf):
                    raw, segments, outcome = self.workload.run(state, self.meter, self.tracer)
                self._probe(rf)
            else:
                raw, segments, outcome = self.workload.run(state, self.meter)
            verdicts = self.workload.check(state, outcome, self.reference)
        except Exception:  # an unexpected exception fails every operation of this run
            traceback.print_exc()
            raw = time.perf_counter() - began
            segments = {"failed": raw}
            verdicts = ["unexpected exception"] * self.workload.operations()
        self.raw_walls[traced].append(raw)
        self.walls[traced].append(segments)
        for i in self.workload.indefinite_ops:
            self.indefinite_expected += 1
            self.indefinite_detected += verdicts[i] is None
        for verdict in verdicts:
            if verdict is not None:
                print(f"{self.workload.name}: {verdict}", file=sys.stderr)
                self.failures.append(verdict)

    def measure(self, state, seconds, trace):
        """Repeat until the next repetition would overrun ``seconds``."""
        start = time.perf_counter()
        longest = 0.0
        while True:
            traced = trace and len(self.walls[True]) < len(self.walls[False])
            began = time.perf_counter()
            self.repetition(state, traced)
            longest = max(longest, time.perf_counter() - began)
            enough = self.walls[False] and (self.walls[True] or not trace)
            if enough and time.perf_counter() - start + longest > seconds:
                break

    def wall(self, traced):
        """Sum over segments (study, sweep case) of the segment's median time.

        Each segment's median is taken over the repetitions separately, so
        a slow spell that hits one case of one repetition does not move it.
        """
        keys = {k for rep in self.walls[traced] for k in rep}
        return sum(
            statistics.median(rep[k] for rep in self.walls[traced] if k in rep) for k in keys
        )

    def end_to_end(self):
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return {
            "wall_s": (self.wall(False), "s"),
            "setup_s": (statistics.median(self.setup_times), "s"),
            "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
        }

    def per_layer(self):
        spans = self.tracer.spans
        groups = {}
        for span in spans:
            groups.setdefault(span["group"], []).append(span)
        setups = [groups.get(name, []) for name in self.groups if name.startswith("setup-")]
        reps = [groups.get(name, []) for name in self.groups if name.startswith("rep-")]

        def per_group(fn):
            # set-up work (the sweep's mesh) plus one repetition, medians of each
            return statistics.median(map(fn, setups)) + statistics.median(map(fn, reps))

        metrics = {}
        for name, metric in LAYER_TIMES.items():
            metrics[metric] = (
                per_group(lambda g: sum(map(tracing.duration, tracing.outermost(g, name)))),
                "s",
            )
        for (name, attr), metric in LAYER_COUNTS.items():
            metrics[metric] = (
                round(per_group(lambda g: sum(s.get(attr, 0) for s in g if s["name"] == name))),
                "count",
            )

        def finest_iterations(group):
            solves = [s for s in group if s["name"] == "solver.solve" and "iterations" in s]
            finest = max((s["level"] for s in solves), default=None)
            return sum(s["iterations"] for s in solves if s["level"] == finest)

        def max_residual(group):
            return max((s["residual"] for s in group if "residual" in s), default=0.0)

        metrics["solver.cg_iterations_finest"] = (round(per_group(finest_iterations)), "count")
        metrics["solver.max_final_residual"] = (per_group(max_residual), "ratio")
        detected = (
            self.indefinite_detected / self.indefinite_expected
            if self.indefinite_expected
            else 1.0  # no case is expected to be indefinite, so none was missed
        )
        metrics["solver.indefinite_detected"] = (detected, "ratio")
        metrics["trace.overhead_s"] = (self.wall(True) - self.wall(False), "s")
        return metrics

    def write_trace(self, env):
        workloads.OUT.mkdir(exist_ok=True)
        own = tracing.self_times(self.tracer.spans)
        spans = [dict(s, self_s=own[s["id"]]) for s in self.tracer.spans]
        path = workloads.OUT / f"trace-{self.workload.name}-seed{self.seed}.json"
        path.write_text(json.dumps({
            "workload": self.workload.name,
            "seed": self.seed,
            "claim": None,  # defining the benchmark claims no gain
            "environment": env,
            "untraced_walls_s": [sum(rep.values()) for rep in self.walls[False]],
            "traced_walls_s": [sum(rep.values()) for rep in self.walls[True]],
            "spans": spans,
        }, indent=1))
        return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workloads.use_checkout_source()
        reference = workloads.load_reference()
    except (workloads.MissingSource, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    run = Run(workload, args.seed, reference, tracing.Tracer() if args.trace else None)
    try:
        state = run.setup()
    except workloads.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    run.measure(state, args.seconds, bool(args.trace))
    metrics = run.per_layer() if args.trace else run.end_to_end()
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name} seed {args.seed}; times as raw/reference seconds")
    print(f"{len(run.setup_times)} set-ups: "
          + " ".join(f"{a:.3f}/{b:.3f}" for a, b in zip(run.raw_setup_times, run.setup_times)))
    for traced in (False, True):
        pairs = zip(run.raw_walls[traced], run.walls[traced])
        print(f"{len(run.walls[traced])} {'traced' if traced else 'untraced'} repetitions: "
              + " ".join(f"{a:.3f}/{sum(b.values()):.3f}" for a, b in pairs))
    if args.trace:
        print(f"spans written to {run.write_trace(env)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value!r} {unit}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
