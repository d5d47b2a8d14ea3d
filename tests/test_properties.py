"""Property tests: random (eps, gamma, degree, scheme) on small jittered meshes,
and a fuzz of the mesh file reader."""

import functools
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robinfem.solver
from robinfem import (
    FormatError,
    IndefiniteMatrix,
    InvalidParameter,
    Method,
    Mesh,
    NonManifoldMesh,
    Scheme,
    SolverConfig,
    SolverMethod,
    assemble,
    continuous_embedding,
    edge_rule,
    error_report,
    generate_disk_mesh,
    generate_square_mesh,
    get_problem,
    min_eigenvalue_dense,
    read_mesh,
    reference_basis,
    solve,
    write_mesh,
)
from robinfem.assembly import _edge_facts, _edge_kernel, _edge_part

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
def meshes(draw, kinds=("disk", "square"), rings=(2, 3)):
    """A small disk (2-3 rings by default) or square (1-3 cells a side) mesh
    whose interior vertices move by up to a tenth of its shortest edge."""
    kind = draw(st.sampled_from(kinds))
    base = base_mesh(kind, draw(st.integers(*rings) if kind == "disk" else st.integers(1, 3)))
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


@settings(max_examples=20, deadline=None)
@given(meshes(kinds=("disk",), rings=(4, 6)), st.sampled_from([(NIT, 1), (NIT, 2), (DG, 1)]), EPSILONS)
def test_multilevel_preconditioner_detects_large_gamma_and_matches_dense(mesh, space, eps):
    # a direct limit of 3 dofs puts two or more aggregation levels under these meshes
    method, degree = space
    data = get_problem("sinsin").make_data(eps)
    solver = robinfem.solver
    with mock.patch.object(solver, "_DIRECT_LIMIT", 3), \
            mock.patch.object(solver, "_smoothed_aggregation", wraps=solver._smoothed_aggregation) as spy:
        with pytest.raises(IndefiniteMatrix):
            solve(assemble(mesh, Scheme(method, degree, eps, 100.0), data))
        system = assemble(mesh, Scheme(method, degree, eps, 0.1), data)
        spy.reset_mock()
        x, report = solve(system, SolverConfig(rel_tolerance=1e-12))
        assert spy.call_count >= 2 and report.coarse_dofs <= 3  # 0: the bottom level is weakly coupled and ends in Jacobi
    x_dense, _ = solve(system, SolverConfig(method=SolverMethod.DENSE))
    assert np.abs(x - x_dense).max() <= 1e-8 * np.abs(x_dense).max()


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


def pulled_back_traces(mesh, basis, edges, rule):
    """The edge trace vectors by the physical-point pull-back, the reference
    for the tabulated ones: each rule point x of an edge is mapped into each
    of its elements by B^-1 (x - v0), and the basis is evaluated there.
    Returns t (q, E, m, k*nb)."""
    k, nb = edges.element_ids.shape[1], basis.n_nodes
    n = edges.normal
    frame = n[:, :, None] if k == 1 else np.stack([n, np.column_stack([-n[:, 1], n[:, 0]])], axis=-1)
    pa, pb = mesh.vertices[edges.vertex_ids.T]
    traces = np.empty((len(rule.points), len(edges), k + 1, k * nb))
    for q, s in enumerate(rule.points):
        x = pa + s * (pb - pa)
        for side, elems in enumerate(edges.element_ids.T):
            ref = np.einsum("eab,eb->ea", mesh.invB[elems], x - mesh.v0[elems])
            dirs = (mesh.invB[elems] @ frame).transpose(0, 2, 1) / k
            traces[q, :, 0, side * nb:(side + 1) * nb] = (-1.0 if side else 1.0) * basis.eval(ref)
            traces[q, :, 1:, side * nb:(side + 1) * nb] = dirs @ basis.eval_grad(ref).transpose(0, 2, 1)
    return traces


@pytest.mark.parametrize("kind", ["boundary", "interior"])
@pytest.mark.parametrize("order", [4, 8])
@pytest.mark.parametrize("degree", [1, 2])
@settings(max_examples=10, deadline=None)
@given(meshes(), st.integers(0, 2**32 - 1))
def test_tabulated_traces_and_edge_blocks_match_the_pull_back(degree, order, kind, mesh, seed):
    # each triangle's vertex order rotated at random, so that every edge class occurs
    rng = np.random.default_rng(seed)
    shifts = rng.integers(0, 3, mesh.n_triangles)
    mesh = Mesh(mesh.vertices, [np.roll(tri, s) for tri, s in zip(mesh.triangles, shifts)])
    edges, basis = getattr(mesh, f"{kind}_edges"), reference_basis(degree)
    points, weights, lift, _, (tables, _) = _edge_kernel(mesh, basis, edges, order)
    assert not tables.flags.writeable and _edge_kernel(mesh, basis, edges, order)[4][0] is tables
    classes = _edge_facts(mesh, edges)[0]
    expected = pulled_back_traces(mesh, basis, edges, edge_rule(order))
    nq, m, width = expected.shape[0], expected.shape[2], expected.shape[3]
    tabulated = lift[:, None] @ tables[classes].reshape(len(edges), nq, lift.shape[2], width)
    assert np.abs(tabulated.transpose(1, 0, 2, 3) - expected).max() <= 1e-13 * np.abs(expected).max()
    # the blocks sum_q w_q t^T C t of a random symmetric coefficient per edge
    coef = rng.standard_normal((len(edges), m, m))
    coef += coef.transpose(0, 2, 1)
    want = np.einsum("q,qemi,emn,qenj->eij", weights, expected, coef, expected)
    _, blocks = _edge_part(mesh, basis, edges, coef, order)
    assert np.abs(blocks - want).max() <= 1e-13 * np.abs(want).max()


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
