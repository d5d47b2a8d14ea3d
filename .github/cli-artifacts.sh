#!/usr/bin/env bash
# Write the CLI artifact set (tables, plots, meshes, matrices, solutions, stdout)
# of the robinfem package under SRC into OUT:
#
#     bash .github/cli-artifacts.sh SRC OUT
set -euo pipefail
src=$1
out=$2
mkdir -p "$out"

cli() {
  PYTHONPATH="$src" python -m robinfem.cli "$@"
}

cli study --problem radial_exp --scheme dg --degree 2 --levels 3 \
  --csv "$out/study.csv" --svg "$out/study.svg" --mesh-out "$out/study.mesh" > "$out/study.stdout"
cli single --problem sinsin --scheme dg --degree 2 --level 1 \
  --mesh-out "$out/single.mesh" --matrix-out "$out/single.matrix" --solution-out "$out/single.solution" \
  > "$out/single.stdout"
# the square: its nearest-side normal field, the rule that project shares
cli study --problem linear_patch --scheme n --degree 2 --levels 3 \
  --csv "$out/square.csv" --svg "$out/square.svg" --mesh-out "$out/square.mesh" > "$out/square.stdout"
# 49,537 dofs: the solve takes the multilevel path, with an aggregation level under the P1 space
cli single --problem radial_exp --scheme n --degree 2 --level 4 \
  --solution-out "$out/multilevel.solution" > "$out/multilevel.stdout"
# 12,481 dofs of continuous P1: the only hierarchy that starts by aggregating A itself,
# and the one dumped matrix of continuous P1 (86,593 entries)
cli single --problem sinsin --scheme n --degree 1 --level 4 \
  --matrix-out "$out/aggregated.matrix" --solution-out "$out/aggregated.solution" > "$out/aggregated.stdout"
# SIPDG P1, the one scheme and degree the runs above leave out, on the singular problem
cli study --problem sqrt_singular --scheme dg --degree 1 --levels 3 \
  --csv "$out/singular.csv" --svg "$out/singular.svg" --mesh-out "$out/singular.mesh" > "$out/singular.stdout"
# SIPDG P1 level 3: the finest matrix of the SIPDG P1 ladder, on the element-block pattern
cli single --problem sinsin --scheme dg --degree 1 --level 3 \
  --matrix-out "$out/sipdg1.matrix" --solution-out "$out/sipdg1.solution" > "$out/sipdg1.stdout"
# split Robin data: sinsin's boundary data divided between u0 and g
cli single --problem sinsin_flux --scheme n --degree 2 --level 2 \
  --matrix-out "$out/flux.matrix" --solution-out "$out/flux.solution" > "$out/flux.stdout"
# the dense Cholesky path, the one CLI solver path the runs above do not take
cli single --problem sinsin --scheme n --degree 1 --level 1 --solver dense \
  --solution-out "$out/dense.solution" > "$out/dense.stdout"
