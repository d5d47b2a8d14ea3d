"""Analytic geometry of the exact smooth domains.

Signed distance, orthogonal projection onto the boundary, and outward unit
normals for the two supported domains (unit disk, unit square), plus the
boundary-skin diagnostics measured on inscribed polygonal meshes: how far
the polygon boundary strays from the true boundary and how much the facet
normals deviate from the exact ones.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateProjection, NotOnBoundary
from .felib import edge_rule

__all__ = [
    "DomainKind",
    "Domain",
    "SkinDiagnostics",
    "unit_disk",
    "unit_square",
    "skin_diagnostics",
]

_ON_BOUNDARY_TOL = 1e-12
# half-width of the tube around the boundary inside which the projection is single-valued
_PROJECTION_TUBE = 0.5


class DomainKind(Enum):
    UNIT_DISK = "unit_disk"
    UNIT_SQUARE = "unit_square"


@dataclass(frozen=True)
class Domain:
    """Analytic domain with closed-form distance/projection/normal."""

    kind: DomainKind

    def signed_distance(self, points):
        """Signed distance to the boundary: negative inside, zero on it."""
        pts, single = _as_points(points)
        if self.kind is DomainKind.UNIT_DISK:
            d = np.hypot(pts[:, 0], pts[:, 1]) - 1.0
        else:
            dx = np.maximum(-pts[:, 0], pts[:, 0] - 1.0)
            dy = np.maximum(-pts[:, 1], pts[:, 1] - 1.0)
            outside = np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))
            inside = np.minimum(np.maximum(dx, dy), 0.0)
            d = outside + inside
        return d[0] if single else d

    def project(self, points):
        """Orthogonal projection onto the boundary, for points in the tube."""
        pts, single = _as_points(points)
        d = np.atleast_1d(self.signed_distance(pts))
        if np.any(np.abs(d) >= _PROJECTION_TUBE):
            raise DegenerateProjection(
                f"point outside the projection tube |d| < {_PROJECTION_TUBE}"
            )
        if self.kind is DomainKind.UNIT_DISK:
            r = np.hypot(pts[:, 0], pts[:, 1])
            proj = pts / r[:, None]
        else:
            proj = np.array([_project_square(p) for p in pts])
        return proj[0] if single else proj

    def normal(self, points):
        """Outward unit normal at points on the boundary."""
        pts, single = _as_points(points)
        d = np.atleast_1d(self.signed_distance(pts))
        if np.any(np.abs(d) > _ON_BOUNDARY_TOL):
            raise NotOnBoundary(
                f"point at signed distance {np.abs(d).max():.3e} from the boundary"
            )
        if self.kind is DomainKind.UNIT_DISK:
            r = np.hypot(pts[:, 0], pts[:, 1])
            nu = pts / r[:, None]
        else:
            x, y = pts[:, 0], pts[:, 1]
            tol = _ON_BOUNDARY_TOL
            conds = [y <= tol, y >= 1.0 - tol, x <= tol, x >= 1.0 - tol]
            nx = np.select(conds, [0.0, 0.0, -1.0, 1.0])
            ny = np.select(conds, [-1.0, 1.0, 0.0, 0.0])
            nu = np.column_stack([nx, ny])
        return nu[0] if single else nu


def _as_points(points):
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


def _project_square(p):
    x, y = p
    if x <= 0.0 or x >= 1.0 or y <= 0.0 or y >= 1.0:
        return np.array([min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0)])
    candidates = [(x, 0.0), (x, 1.0), (0.0, y), (1.0, y)]
    dists = [y, 1.0 - y, x, 1.0 - x]
    dmin = min(dists)
    # ties on the medial axis break toward the lexicographically smallest point
    best = min(c for c, di in zip(candidates, dists) if di == dmin)
    return np.array(best)


def unit_disk():
    return Domain(DomainKind.UNIT_DISK)


def unit_square():
    return Domain(DomainKind.UNIT_SQUARE)


@dataclass(frozen=True)
class SkinDiagnostics:
    """Measured gap between the polygonal and the exact boundary.

    max_abs_distance     : max |d(x)| over boundary-edge quadrature points
    max_normal_deviation : max |nu_h - nu(proj(x))| over the same points
    max_tstar            : max |x - proj(x)|, the inverse-projection shift
    """

    max_abs_distance: float
    max_normal_deviation: float
    max_tstar: float


def skin_diagnostics(domain, mesh):
    """Sample boundary edges of a mesh against the exact domain boundary."""
    edges = mesh.boundary_edges
    if not edges:
        return SkinDiagnostics(0.0, 0.0, 0.0)
    rule = edge_rule(8)
    a, b = np.asarray(mesh.vertices)[edges.vertex_ids.T]
    # points edge by edge, rule points in order within each edge
    pts = (a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]).reshape(-1, 2)
    normals_h = np.repeat(edges.normal, len(rule.points), axis=0)
    dist = domain.signed_distance(pts)
    proj = domain.project(pts)
    nu = domain.normal(proj)
    return SkinDiagnostics(
        max_abs_distance=float(np.max(np.abs(dist))),
        max_normal_deviation=float(np.max(np.linalg.norm(normals_h - nu, axis=1))),
        max_tstar=float(np.max(np.linalg.norm(pts - proj, axis=1))),
    )
