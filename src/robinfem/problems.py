"""Benchmark problems with known exact solutions.

Each preset fixes a domain and a solution u, then manufactures the data
so that u satisfies

    -laplace(u) = f        in the domain,
    du/dnu + u/eps = u0/eps + g   on the boundary.

A preset is data: its domain, u, grad(u) and f.  The boundary data is
built from the domain's outward normal field (Domain.normal_field,
radial on the disk, nearest-side on the square), which extends off the
boundary, so u0 and g can be evaluated at quadrature points of the
polygonal boundary, which lies slightly inside the curved one.
"""

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .assembly import ProblemData
from .errors import InvalidParameter
from .geometry import Domain, unit_disk, unit_square

__all__ = ["Problem", "get_problem", "problem_names", "list_problems"]


@dataclass(frozen=True)
class Problem:
    """A named benchmark: a domain, the exact solution and its source f."""

    name: str
    domain: Domain
    description: str
    exact_u: Callable
    exact_grad: Callable
    f: Callable
    split_flux: bool = False

    def make_data(self, epsilon):
        """ProblemData for one epsilon: u0 = u + eps*(du/dnu - g).

        With split_flux the normal derivative is supplied through g and u0
        reduces to the trace of u; otherwise g = 0 and u0 carries the flux.
        """
        u, grad = self.exact_u, self.exact_grad

        def flux(x, y):
            nu = self.domain.normal_field(np.stack([x, y], axis=-1))
            gx = grad(x, y)
            return gx[..., 0] * nu[..., 0] + gx[..., 1] * nu[..., 1]

        if self.split_flux:
            return ProblemData(f=self.f, u0=u, g=flux, exact_u=u, exact_grad=grad)

        def u0(x, y):
            return u(x, y) + epsilon * flux(x, y)

        def g(x, y):
            return np.zeros_like(np.asarray(x, dtype=float))

        return ProblemData(f=self.f, u0=u0, g=g, exact_u=u, exact_grad=grad)


def _radial_exp_grad(x, y):
    e = np.exp(-(x * x + y * y))
    return np.stack([-2.0 * x * e, -2.0 * y * e], axis=-1)


def _radial_exp_f(x, y):
    r2 = x * x + y * y
    return (4.0 - 4.0 * r2) * np.exp(-r2)


def _sqrt_singular_grad(x, y):
    r = np.hypot(x + 1.0, y)
    return np.stack([(x + 1.0) / r, y / r], axis=-1)


def _linear_patch_grad(x, y):
    out = np.empty(np.shape(x) + (2,))
    out[..., 0] = 0.7
    out[..., 1] = -0.4
    return out


_SINSIN = Problem(
    "sinsin", unit_disk(), "smooth product of sines on the unit disk",
    exact_u=lambda x, y: np.sin(x) * np.sin(y),
    exact_grad=lambda x, y: np.stack([np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)], axis=-1),
    f=lambda x, y: 2.0 * np.sin(x) * np.sin(y),
)
_REGISTRY = {p.name: p for p in (
    _SINSIN,
    replace(_SINSIN, name="sinsin_flux", split_flux=True,
            description="same solution as sinsin, data split between u0 and g"),
    # distance to (-1, 0): smooth inside, gradient blows up at that
    # boundary point, which keeps the solution just below H^2
    Problem(
        "sqrt_singular", unit_disk(), "distance to a boundary point; limited regularity",
        exact_u=lambda x, y: np.hypot(x + 1.0, y),
        exact_grad=_sqrt_singular_grad,
        f=lambda x, y: -1.0 / np.hypot(x + 1.0, y),
    ),
    Problem(
        "radial_exp", unit_disk(), "radial Gaussian bump on the unit disk",
        exact_u=lambda x, y: np.exp(-(x * x + y * y)),
        exact_grad=_radial_exp_grad,
        f=_radial_exp_f,
    ),
    Problem(
        "linear_patch", unit_square(), "linear solution on the unit square (patch test)",
        exact_u=lambda x, y: 0.3 + 0.7 * x - 0.4 * y,
        exact_grad=_linear_patch_grad,
        f=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
    ),
)}


def get_problem(name):
    """The registered problem of a name; InvalidParameter unless name is a known str."""
    if not (isinstance(name, str) and name in _REGISTRY):
        raise InvalidParameter(f"unknown problem {name!r}; known: {', '.join(sorted(_REGISTRY))}")
    return _REGISTRY[name]


def problem_names():
    return sorted(_REGISTRY)


def list_problems():
    """(name, domain, description) rows for display."""
    rows = []
    for name in problem_names():
        p = _REGISTRY[name]
        rows.append((p.name, p.domain.kind.value, p.description))
    return rows
