"""Per-level layer table from one traced run of each workload.

    python3 perfbench/baseline.py [--workload NAME ...] [--seed N]

Prints, per workload and per mesh level (and per ε, γ case on the
sweep), the columns of the ROADMAP "Baseline" table: triangles, dofs,
mesh generation, edge topology, dof map, the volume / interior-penalty /
load forms, the whole assemble, the solve with its CG iterations, and
error_report.  Times are seconds from the spans of the traced
repetition, i.e. the same spans the per-layer metrics sum.  An
interior-penalty time in parentheses is the probe on a Nitsche mesh
(see NOTES.md), not part of that workload.
"""

import argparse
import collections
import sys

import run
import tracing
import workloads

COLUMNS = ("mesh", "topo", "dofmap", "vol", "ip", "load", "assemble", "solve (its)", "error_report")
PER_CASE = {
    "felib.dofmap": "dofmap",
    "assembly.volume": "vol",
    "assembly.interior_penalty": "ip",
    "assembly.load": "load",
    "assembly.assemble": "assemble",
    "solver.solve": "solve (its)",
    "analysis.error_report": "error_report",
}


def table_rows(spans):
    """(level, epsilon, gamma) -> column -> text, from one run's spans."""
    per_mesh = collections.defaultdict(dict)
    cases = collections.defaultdict(dict)
    for s in spans:
        seconds = tracing.duration(s)
        if s["name"] == "mesh.generate" and "level" in s:
            per_mesh[s["level"]]["mesh"] = f"{seconds:.3f}"
        elif s["name"] == "mesh.topology":
            per_mesh[s["level"]].update(topo=f"{seconds:.3f}", tris=str(s["triangles"]))
        elif s["name"] == "assembly.interior_penalty" and s.get("probe"):
            per_mesh[s["level"]]["ip"] = f"({seconds:.3f})"
        elif s["name"] in PER_CASE and "epsilon" in s:
            row = cases[s["level"], s["epsilon"], s["gamma"]]
            text = f"{seconds:.3f}"
            if "iterations" in s:
                text += f" ({s['iterations']})"
            elif s.get("error"):
                text += f" [{s['error']}]"
            row[PER_CASE[s["name"]]] = text
            if "dofs" in s:
                row["dofs"] = str(s["dofs"])
    return {key: {**per_mesh[key[0]], **row} for key, row in sorted(cases.items())}


def print_table(name, rows, out=sys.stdout):
    header = ("workload", "lvl", "eps", "gamma", "tris", "dofs") + COLUMNS
    print("| " + " | ".join(header) + " |", file=out)
    print("|" + "---|" * len(header), file=out)
    for (level, eps, gamma), row in rows.items():
        cells = [name, str(level), f"{eps:g}", f"{gamma:g}", row.get("tris", "–"), row.get("dofs", "–")]
        cells += [row.get(col, "–") for col in COLUMNS]
        print("| " + " | ".join(cells) + " |", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    workloads.use_checkout_source()
    reference = workloads.load_reference()
    print(run.environment())
    for name in args.workload or list(workloads.WORKLOADS):
        bench = run.Run(workloads.WORKLOADS[name], args.seed, reference, tracing.Tracer())
        bench.measure(bench.setup(), seconds=0.0, trace=True)
        last_setup = [g for g in bench.groups if g.startswith("setup-")][-1]
        last_rep = [g for g in bench.groups if g.startswith("rep-")][-1]
        spans = [s for s in bench.tracer.spans if s["group"] in (last_setup, last_rep)]
        print()
        print_table(name, table_rows(spans))
        overhead = bench.per_layer()["trace.overhead_s"][0]
        print(f"\n{name}: {len(bench.failures)} failed operations, tracing overhead {overhead:+.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
