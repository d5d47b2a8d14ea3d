"""Property tests: random (eps, gamma, degree, scheme) on small jittered meshes,
and a fuzz of the mesh file reader."""

import functools
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from robinfem import (
    FormatError,
    InvalidParameter,
    Method,
    Mesh,
    NonManifoldMesh,
    Scheme,
    SolverConfig,
    SolverMethod,
    assemble,
    continuous_embedding,
    error_report,
    generate_disk_mesh,
    generate_square_mesh,
    get_problem,
    min_eigenvalue_dense,
    read_mesh,
    solve,
    write_mesh,
)

NIT = Method.NITSCHE
DG = Method.SIPDG

SPACES = st.sampled_from([(NIT, 1), (NIT, 2), (DG, 1), (DG, 2)])
EPSILONS = st.floats(-6.0, 3.0).map(lambda e: 10.0**e)
GAMMAS = st.floats(-3.0, 2.0).map(lambda e: 10.0**e)
# every jittered mesh below stays SPD up to gamma ~ 0.12 (P2 SIPDG on the
# square is the tightest), so half of that is safely coercive
SMALL_GAMMAS = st.floats(-3.0, math.log10(0.05)).map(lambda e: 10.0**e)


@functools.lru_cache(maxsize=None)
def base_mesh(kind, n):
    return generate_disk_mesh(n) if kind == "disk" else generate_square_mesh(n)


@st.composite
def meshes(draw, kinds=("disk", "square")):
    """A small disk (2-3 rings) or square (1-3 cells a side) mesh whose
    interior vertices move by up to a tenth of its shortest edge."""
    kind = draw(st.sampled_from(kinds))
    base = base_mesh(kind, draw(st.integers(2, 3) if kind == "disk" else st.integers(1, 3)))
    amplitude = draw(st.floats(0.0, 0.1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h_min = min(base.boundary_edges.h_e.min(), base.interior_edges.h_e.min(initial=np.inf))
    angle = rng.uniform(0.0, 2.0 * np.pi, base.n_vertices)
    radius = amplitude * h_min * rng.uniform(0.0, 1.0, base.n_vertices)
    move = radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    move[base.boundary_edges.vertex_ids.ravel()] = 0.0
    return Mesh(base.vertices + move, base.triangles)


def system_arrays(system):
    arrays = [system.matrix.data, system.matrix.indices, system.matrix.indptr, system.rhs]
    if system.prolongation is not None:
        p = system.prolongation
        arrays += [p.data, p.indices, p.indptr]
    return arrays + [system.dofmap.cell_dofs]


@settings(max_examples=30, deadline=None)
@given(meshes(), SPACES, EPSILONS, GAMMAS)
def test_matrix_is_symmetric(mesh, space, eps, gamma):
    method, degree = space
    A = assemble(mesh, Scheme(method, degree, eps, gamma), get_problem("sinsin").make_data(eps)).matrix
    assert abs(A - A.T).max() <= 1e-13 * abs(A).max()


@settings(max_examples=30, deadline=None)
@given(meshes(), SPACES, EPSILONS, SMALL_GAMMAS)
def test_matrix_is_spd_for_small_gamma(mesh, space, eps, gamma):
    method, degree = space
    A = assemble(mesh, Scheme(method, degree, eps, gamma), get_problem("sinsin").make_data(eps)).matrix
    assert min_eigenvalue_dense(A) > 0.0


@settings(max_examples=20, deadline=None)
@given(meshes(kinds=("square",)), SPACES, EPSILONS, SMALL_GAMMAS)
def test_square_patch_test_is_exact(mesh, space, eps, gamma):
    # a linear solution on an exactly meshed polygon is reproduced exactly
    method, degree = space
    scheme = Scheme(method, degree, eps, gamma)
    data = get_problem("linear_patch").make_data(eps)
    system = assemble(mesh, scheme, data)
    solution, _ = solve(system, SolverConfig(method=SolverMethod.DENSE))
    report = error_report(mesh, scheme, data, solution, system.dofmap)
    assert report.err_l2 <= 1e-9 and report.err_energy <= 1e-8


@settings(max_examples=20, deadline=None)
@given(meshes(), st.sampled_from([1, 2]), EPSILONS, GAMMAS)
def test_dg_restricted_to_continuous_functions_is_nitsche(mesh, degree, eps, gamma):
    data = get_problem("sinsin_flux").make_data(eps)
    dg = assemble(mesh, Scheme(DG, degree, eps, gamma), data)
    nitsche = assemble(mesh, Scheme(NIT, degree, eps, gamma), data)
    E = continuous_embedding(dg.dofmap, nitsche.dofmap)
    restricted, target = (E.T @ dg.matrix @ E).toarray(), nitsche.matrix.toarray()
    assert np.max(np.abs(restricted - target)) <= 1e-12 * np.max(np.abs(target))
    np.testing.assert_allclose(E.T @ dg.rhs, nitsche.rhs, rtol=0, atol=1e-12 * np.max(np.abs(nitsche.rhs)))


@settings(max_examples=25, deadline=None)
@given(meshes(), st.lists(st.tuples(SPACES, EPSILONS, GAMMAS), min_size=2, max_size=5))
def test_memoized_assembly_equals_fresh_mesh_assembly(mesh, cases):
    # every case but the last warms the memo of mesh; the last one is compared
    for (method, degree), eps, gamma in cases:
        scheme = Scheme(method, degree, eps, gamma)
        data = get_problem("sinsin_flux").make_data(eps)
        used = assemble(mesh, scheme, data)
    fresh = assemble(Mesh(mesh.vertices, mesh.triangles), scheme, data)
    assert (used.prolongation is None) == (fresh.prolongation is None)
    for a, b in zip(system_arrays(used), system_arrays(fresh)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _mesh_lines():
    """Lines of a valid mesh file, for the fuzz below to edit."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh.txt")
        write_mesh(generate_square_mesh(1), path)
        with open(path) as fh:
            return fh.read().splitlines()


VALID_LINES = _mesh_lines()
TOKENS = st.one_of(
    st.sampled_from(["meshfmt", "1", "vertices", "triangles", "#", "0", "-1", "nan", "inf",
                     "1e308", "-1e308", "99999999999999", "0.5", "1e-320", "x"]),
    st.integers(-3, 8).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=6),
)
LINES = st.lists(TOKENS, max_size=4).map(" ".join)


@st.composite
def edited_mesh_files(draw):
    """A valid mesh file with a few lines replaced, inserted or deleted."""
    lines = list(VALID_LINES)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert" or i == len(lines):
            lines.insert(i, draw(LINES))
        elif edit == "replace":
            lines[i] = draw(LINES)
        else:
            del lines[i]
    return "\n".join(lines).encode()


@st.composite
def scaled_mesh_files(draw):
    """A valid mesh file with every coordinate scaled by 10^k, from
    denormal to overflowing."""
    lines, k = list(VALID_LINES), draw(st.integers(-330, 310))
    n = int(lines[1].split()[1])
    for i in range(2, 2 + n):
        lines[i] = " ".join(f"{c}e{k}" for c in lines[i].split())
    return "\n".join(lines).encode()


MESH_FILES = st.one_of(
    edited_mesh_files(),
    scaled_mesh_files(),
    st.lists(LINES, max_size=12).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=64),
)


@settings(max_examples=300, deadline=None)
@given(MESH_FILES)
def test_read_mesh_raises_only_typed_errors(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh.txt")
        with open(path, "wb") as fh:
            fh.write(content)
        try:
            mesh = read_mesh(path)
        except (FormatError, InvalidParameter, NonManifoldMesh):
            return
    assert np.all(mesh.triangle_areas() > 0.0)


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # under the repo's warning filters, hypothesis's report hook must not become an INTERNALERROR
    test_file = tmp_path / "test_falsified.py"
    test_file.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_below_five(n):\n"
        "    assert n < 5\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output
