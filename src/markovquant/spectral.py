"""Pressure matrices, spectral radii, and root solving.

For order r and exponent parameter s, the weight matrix has entries

    b_ij(s) = (p_ij * c_ij^r)^{s/(s+r)}   on edges, 0 elsewhere.

Each entry is strictly decreasing in s (the base lies in (0,1)), so the
spectral radius Psi(s) decreases strictly on any scope containing a cycle,
from Psi(0) >= 1 (adjacency radius) to a value < 1 as s -> infinity (row sums
then fall below 1).  The unique root of Psi(s) = 1 is found by bisection.

Scopes without a solvable root (Psi(s) < 1 for every s > 0, e.g. a lone
self-loop) are flagged subcritical with root 0; such components can never be
critical.  Radii of reducible matrices are taken as the maximum over the SCC
diagonal blocks; irreducible blocks use power iteration on (B + I), which is
primitive, with the shift removed afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from . import graphs
from .model import MarkovSystem, as_fraction

RADIUS_TOL = 1e-12
ROOT_TOL = 1e-10
_SUBCRITICAL_PROBE = 1e-9
_MAX_POWER_ITER = 20_000


class NoCycleError(ValueError):
    """Raised when a scope has no edges, hence no pressure function."""


@dataclass(frozen=True)
class WeightMatrix:
    """Edge-weight matrix b_ij(s) restricted to a vertex scope."""

    vertices: tuple[int, ...]
    entries: np.ndarray
    r: float
    s: float


def _scope_vertices(sys: MarkovSystem, scope) -> tuple[int, ...]:
    if isinstance(scope, str):
        if scope != "full":
            raise ValueError(f"unknown scope {scope!r}; use 'full' or vertex iterable")
        return tuple(sys.vertices)
    verts = tuple(sorted(set(int(v) for v in scope)))
    for v in verts:
        if not 1 <= v <= sys.n:
            raise IndexError(f"vertex {v} out of range 1..{sys.n}")
    return verts


def weight_matrix(sys: MarkovSystem, scope, r, s) -> WeightMatrix:
    """Build b_ij(s) = (p_ij c_ij^r)^{s/(s+r)} on the given scope.

    s = 0 yields the 0/1 adjacency pattern (entry 1 on edges).
    """
    rf = float(as_fraction(r))
    sf = float(s)
    if rf <= 0:
        raise ValueError(f"order r must be positive, got {r}")
    if sf < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    verts = _scope_vertices(sys, scope)
    idx = {v: i for i, v in enumerate(verts)}
    expo = sf / (sf + rf)
    m = np.zeros((len(verts), len(verts)))
    for i, j in sys.edges:
        if i in idx and j in idx:
            w = float(sys.edge_p(i, j)) * float(sys.edge_c(i, j)) ** rf
            m[idx[i], idx[j]] = w**expo
    return WeightMatrix(vertices=verts, entries=m, r=rf, s=sf)


def _power_radius(block: np.ndarray, tol: float) -> float:
    """Perron radius of an irreducible nonnegative block.

    Iterates x <- (B+I)x / ||x||_1; B+I is primitive for irreducible B, so the
    iteration converges even for periodic patterns.  The +1 shift is removed
    from the converged eigenvalue.
    """
    k = block.shape[0]
    if k == 1:
        return float(block[0, 0])
    shifted = block + np.eye(k)
    x = np.full(k, 1.0 / k)
    lam = 1.0
    for _ in range(_MAX_POWER_ITER):
        y = shifted @ x
        lam_new = float(y.sum())  # x has unit 1-norm and y >= 0
        y /= lam_new
        if abs(lam_new - lam) <= tol * lam_new and float(np.abs(y - x).max()) <= tol:
            return lam_new - 1.0
        x = y
        lam = lam_new
    return lam - 1.0


def spectral_radius(m: WeightMatrix | np.ndarray, tol: float = RADIUS_TOL) -> float:
    """Spectral radius of a nonnegative matrix.

    Reducible matrices are handled block-triangularly: the radius is the
    maximum over SCC diagonal blocks of the nonzero pattern.
    """
    a = m.entries if isinstance(m, WeightMatrix) else np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if (a < 0).any():
        raise ValueError("matrix must be nonnegative")
    n = a.shape[0]
    if n == 0:
        return 0.0
    pattern = [np.nonzero(a[i])[0].tolist() for i in range(n)]
    comps = graphs.strongly_connected_components(n, lambda v: pattern[v])
    radius = 0.0
    for comp in comps:
        if len(comp) == 1 and a[comp[0], comp[0]] == 0.0:
            continue
        block = a[np.ix_(comp, comp)]
        radius = max(radius, _power_radius(block, tol))
    return radius


@dataclass(frozen=True)
class SpectralSolution:
    """Root of Psi(s) = 1 on a scope, with the evaluations made on the way."""

    vertices: tuple[int, ...]
    r: float
    root: float
    subcritical: bool
    evaluations: tuple[tuple[float, float], ...]

    def psi(self) -> float:
        """Psi at the root (from the final evaluation)."""
        return self.evaluations[-1][1] if self.evaluations else float("nan")


def solve_sr(sys: MarkovSystem, scope, r, tol: float = ROOT_TOL) -> SpectralSolution:
    """Solve Psi_scope(s) = 1 for the unique positive root by bisection.

    The upper bracket is doubled from 1 until Psi < 1 (guaranteed to happen:
    as s -> infinity row sums drop below 1).  If Psi is already below 1 at
    s = 1e-9, the scope is subcritical and the root is reported as 0.
    """
    rf = float(as_fraction(r))
    verts = _scope_vertices(sys, scope)
    if not any(i in verts and j in verts for i, j in sys.edges):
        raise NoCycleError(f"scope {verts} has no edges")
    evals: list[tuple[float, float]] = []

    def psi(s: float) -> float:
        val = spectral_radius(weight_matrix(sys, verts, rf, s))
        evals.append((s, val))
        return val

    if psi(_SUBCRITICAL_PROBE) < 1.0:
        return SpectralSolution(
            vertices=verts, r=rf, root=0.0, subcritical=True, evaluations=tuple(evals)
        )
    lo = _SUBCRITICAL_PROBE
    hi = 1.0
    while psi(hi) >= 1.0:
        lo = hi
        hi *= 2.0
        if hi > 2.0**60:
            raise AssertionError("Psi(s) failed to drop below 1; model weights invalid")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if psi(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    psi(root)
    return SpectralSolution(
        vertices=verts, r=rf, root=root, subcritical=False, evaluations=tuple(evals)
    )


def left_perron_vector(block: np.ndarray, tol: float = RADIUS_TOL) -> np.ndarray:
    """Normalized positive left eigenvector of an irreducible nonnegative block.

    Power iteration on the transpose of (B + I); normalized to sum 1.
    """
    b = np.asarray(block, dtype=float)
    k = b.shape[0]
    if k == 1:
        return np.ones(1)
    shifted = b.T + np.eye(k)
    x = np.full(k, 1.0 / k)
    for _ in range(_MAX_POWER_ITER):
        y = shifted @ x
        y /= y.sum()
        if float(np.abs(y - x).max()) <= tol:
            x = y
            break
        x = y
    if (x <= 0).any():
        raise ValueError("left eigenvector not strictly positive; block not irreducible?")
    return x


@dataclass(frozen=True)
class RowSumBounds:
    """Eigenvector band for the h-step sums into each vertex of a component.

    sums[h-1][p] is the p-column sum of A^h restricted to the component; the
    left Perron eigenvector pins every such sum inside [c1, c2] =
    [min(xi)/max(xi), max(xi)/min(xi)].
    """

    vertices: tuple[int, ...]
    c1: float
    c2: float
    eigenvector: tuple[float, ...]
    sums: np.ndarray  # shape (h_max, len(vertices))


def row_sum_bounds(
    sys: MarkovSystem, r, component: Iterable[int], h_max: int = 64, s: float | None = None
) -> RowSumBounds:
    """Column sums of A_H(s_r)^h for h = 1..h_max, with eigenvector bounds.

    The component must be a non-trivial (cyclic) strongly connected set; s
    defaults to the global root s_r of the full system, which equals the
    component root when the component is critical.  The default solve runs
    tighter than ROOT_TOL because root error is amplified by the h-th matrix
    power (drift is roughly h times the radius error at the root).
    """
    verts = _scope_vertices(sys, component)
    if s is None:
        s = solve_sr(sys, "full", r, tol=1e-12).root
    wm = weight_matrix(sys, verts, r, s)
    a = wm.entries
    if not a.any():
        raise NoCycleError(f"component {verts} is trivial (no internal edges)")
    xi = left_perron_vector(a)
    c1 = float(xi.min() / xi.max())
    c2 = float(xi.max() / xi.min())
    sums = np.empty((h_max, len(verts)))
    power = np.eye(len(verts))
    for h in range(h_max):
        power = power @ a
        sums[h] = power.sum(axis=0)
    return RowSumBounds(
        vertices=verts, c1=c1, c2=c2, eigenvector=tuple(float(x) for x in xi), sums=sums
    )


def component_roots(
    sys: MarkovSystem, r, cond: graphs.Condensation | None = None
) -> dict[int, SpectralSolution | None]:
    """Root of Psi_H = 1 for every condensation component.

    Acyclic single-vertex components get None (their pressure is identically
    zero); callers should treat their root as 0.
    """
    if cond is None:
        cond = graphs.scc_condensation(sys)
    out: dict[int, SpectralSolution | None] = {}
    for i, comp in enumerate(cond.components):
        out[i] = None if cond.acyclic[i] else solve_sr(sys, comp, r)
    return out


def critical_analysis(sys: MarkovSystem, r) -> graphs.CriticalStructure:
    """Condensation plus per-component roots folded into a CriticalStructure.

    The per-component SpectralSolutions are attached as `roots`.
    """
    cond = graphs.scc_condensation(sys)
    roots = component_roots(sys, r, cond)
    per = {i: (0.0 if sol is None else sol.root) for i, sol in roots.items()}
    return replace(graphs.critical_structure(sys, r, per, cond=cond), roots=roots)
