"""Pressure matrices, certified spectral radii, and root solving.

For order r and exponent parameter s, the weight matrix has entries

    b_ij(s) = (p_ij * c_ij^r)^{s/(s+r)}   on edges, 0 elsewhere.

Each entry is strictly decreasing in s (the base lies in (0,1)), so the
spectral radius Psi(s) decreases strictly on any scope containing a cycle,
from Psi(0) >= 1 (adjacency radius) to a value < 1 as s -> infinity (row sums
then fall below 1).  The unique root of Psi(s) = 1 is the float a bisection
returns; a secant finds certified ends around it first, so that the
bisection only evaluates Psi at the few midpoints between them, never at
the root itself.  On the full scope Psi is the maximum over the cyclic blocks
of the condensation's components, so its root is their largest root, s_r.

Scopes without a solvable root (Psi(s) < 1 for every s > 0, e.g. a lone
self-loop) are flagged subcritical with root 0; such components can never be
critical.

Every radius comes from one Perron kernel.  The radius of a reducible matrix
is the maximum over the SCC diagonal blocks of its pattern.  On an
irreducible block B, at each positive iterate x, the kernel has the
Collatz-Wielandt bracket

    min_i (Bx)_i / x_i  <=  rho(B)  <=  max_i (Bx)_i / x_i

and it stops once the bracket is RADIUS_TOL-tight (relative) and the vector
step is at most RADIUS_TOL.  Asked only whether rho >= 1, it steps by power
iteration on B + I, which is primitive, so periodic patterns converge too,
and it stops as soon as the bracket excludes 1, which certifies the answer;
a tight bracket that still contains 1 is decided by the estimate sum(Bx)
(x of unit 1-norm).  Asked for the radius itself, it takes Noda's inverse
iteration steps (T. Noda, Numer. Math. 17, 1971), shifted by the bracket's
upper end, which converge quadratically (L. Elsner, Linear Algebra Appl. 15,
1976), and falls back to the B + I step where a solve fails, is not
positive, or no longer narrows the bracket.  Reaching _MAX_POWER_ITER steps
otherwise raises PowerIterationCapError.

solve_sr compiles its scope once: the edges as index arrays with log(p c^r)
per edge, sliced from the model's float edge table, and the SCC blocks of
the pattern, each with a matrix allocated once and its own Perron vector.
Each Psi(s) is one vectorized exp per block, and the kernel starts from the
vectors of the previous evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from . import graphs
from .model import MarkovSystem, as_fraction

RADIUS_TOL = 1e-12
ROOT_TOL = 1e-10
_SUBCRITICAL_PROBE = 1e-9
_MAX_POWER_ITER = 20_000
_MAX_SECANT_STEPS = 64


class NoCycleError(ValueError):
    """Raised when a scope has no edges, hence no pressure function."""


class PowerIterationCapError(ValueError):
    """Raised when the Perron kernel reaches _MAX_POWER_ITER steps while its
    bracket is neither tight nor clear of the value it is compared with."""


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


def _scope_edges(sys: MarkovSystem, verts: tuple[int, ...], rf: float):
    """(rows, cols, log(p c^r)) of the edges inside a scope, indexed into verts."""
    if rf <= 0:
        raise ValueError(f"order r must be positive, got {rf}")
    rows, cols, log_p, log_c = sys.edge_table()
    local = np.full(sys.n, -1, dtype=np.intp)
    local[np.array(verts, dtype=np.intp) - 1] = np.arange(len(verts))
    rows, cols = local[rows], local[cols]
    inside = (rows >= 0) & (cols >= 0)
    return rows[inside], cols[inside], log_p[inside] + rf * log_c[inside]  # no underflow of p c^r


def weight_matrix(sys: MarkovSystem, scope, r, s) -> np.ndarray:
    """The array b_ij(s) = (p_ij c_ij^r)^{s/(s+r)} on the given scope, rows and
    columns in ascending vertex order.

    Every reader of B(s) takes it from here; only solve_sr's compiled blocks
    refill their own in place, from the same log weights.  s = 0 yields the
    0/1 adjacency pattern (entry 1 on edges).
    """
    rf = float(as_fraction(r))
    sf = float(s)
    if sf < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    verts = _scope_vertices(sys, scope)
    rows, cols, logw = _scope_edges(sys, verts, rf)
    m = np.zeros((len(verts), len(verts)))
    m[rows, cols] = np.exp(logw * (sf / (sf + rf)))
    return m


def _noda_step(a: np.ndarray, x: np.ndarray, shift: float) -> np.ndarray | None:
    """Noda's step: (shift I - a)^-1 x at unit 1-norm, or None when the solve
    fails or its result is not strictly positive."""
    m = -a
    m.flat[:: a.shape[0] + 1] += shift
    try:
        y = np.linalg.solve(m, x)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(all="ignore"):
        y /= y.sum()
    return y if (y > 0).all() else None


def _perron(a: np.ndarray, x: np.ndarray, target: float | None = None):
    """The Perron kernel on one irreducible nonnegative block.

    From the positive unit-1-norm x, each step computes the Collatz-Wielandt
    bracket [lo, hi] at x and moves x to a positive unit-1-norm y.  Given a
    target, y = (a+I)x / ||(a+I)x||_1.  Without one, y is Noda's step
    (hi I - a)^-1 x normalized, or the (a+I) step where that solve fails or
    is not strictly positive, and where the bracket is already tight (that
    step then checks the stop).  In exact arithmetic no step widens the
    bracket and Noda's steps narrow it, so once an iterate's bracket is no
    narrower than an earlier one's, rounding limits the solves and the call
    keeps to (a+I) steps.
    Returns (lo, hi, estimate, x): the bracket at the last iterate, the
    estimate sum(a x) inside it, and the vector to start from next.  Stops
    when the bracket is RADIUS_TOL-tight and the vector step is at most
    RADIUS_TOL, or, given a target, as soon as the bracket excludes it.
    """
    noda = target is None
    narrowest = math.inf
    for _ in range(_MAX_POWER_ITER):
        ax = a @ x
        ratios = ax / x
        lo, hi, est = float(ratios.min()), float(ratios.max()), float(ax.sum())
        if target is not None and (lo >= target or hi < target):
            return lo, hi, est, x
        tight = hi - lo <= RADIUS_TOL * hi
        if hi - lo >= narrowest:
            noda = False
        narrowest = min(narrowest, hi - lo)
        y = _noda_step(a, x, hi) if noda and not tight else None
        if y is None:
            y = (ax + x) / (est + 1.0)
        if tight and float(np.abs(y - x).max()) <= RADIUS_TOL:
            return lo, hi, est, y
        x = y
    around = "" if target is None else f" around {target!r}"
    raise PowerIterationCapError(
        f"Perron iteration reached its cap of {_MAX_POWER_ITER} steps with the "
        f"radius bracket [{lo!r}, {hi!r}]{around} not tight"
    )


def _cyclic_blocks(k: int, rows: np.ndarray, cols: np.ndarray) -> list[np.ndarray]:
    """SCCs of the pattern {(rows[e], cols[e])} on 0..k-1 that hold an edge:
    the diagonal blocks that carry the spectral radius."""
    succ: list[list[int]] = [[] for _ in range(k)]
    for i, j in zip(rows.tolist(), cols.tolist()):
        succ[i].append(j)
    return [
        np.array(comp)
        for comp in graphs.strongly_connected_components(k, succ.__getitem__)
        if len(comp) > 1 or comp[0] in succ[comp[0]]
    ]


def spectral_radius(a: np.ndarray) -> float:
    """Spectral radius of a square nonnegative array, certified to relative RADIUS_TOL.

    Reducible matrices are handled block-triangularly: the radius is the
    maximum over SCC diagonal blocks of the nonzero pattern.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if (a < 0).any():
        raise ValueError("matrix must be nonnegative")
    radius = 0.0
    for comp in _cyclic_blocks(a.shape[0], *np.nonzero(a)):
        start = np.full(len(comp), 1.0 / len(comp))
        radius = max(radius, _perron(a[np.ix_(comp, comp)], start)[2])
    return radius


@dataclass
class _Block:
    """One cyclic SCC block of a compiled scope; x is the warm start."""

    rows: np.ndarray
    cols: np.ndarray
    logw: np.ndarray
    matrix: np.ndarray
    x: np.ndarray


class _Pressure:
    """Psi(s) on one scope, compiled once (see the module docstring)."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, logw: np.ndarray, k: int, rf: float):
        self.rf = rf
        self.blocks = []
        for comp in _cyclic_blocks(k, rows, cols):
            local = np.full(k, -1)
            local[comp] = np.arange(len(comp))
            inside = (local[rows] >= 0) & (local[cols] >= 0)
            self.blocks.append(_Block(
                local[rows[inside]], local[cols[inside]], logw[inside],
                np.zeros((len(comp), len(comp))), np.full(len(comp), 1.0 / len(comp)),
            ))

    def __call__(self, s: float, target: float | None = None) -> tuple[float, float, float]:
        """(lo, hi, estimate) of Psi(s), each the maximum over the blocks."""
        expo = s / (s + self.rf)
        lo = hi = est = 0.0
        for b in self.blocks:
            b.matrix[b.rows, b.cols] = np.exp(b.logw * expo)
            b_lo, b_hi, b_est, b.x = _perron(b.matrix, b.x, target)
            lo, hi, est = max(lo, b_lo), max(hi, b_hi), max(est, b_est)
        return lo, hi, est


@dataclass(frozen=True)
class SpectralSolution:
    """Root of Psi(s) = 1 on a scope, with the evaluations made on the way.

    Each evaluation is (s, estimate of Psi(s)).  The secant's evaluations are
    RADIUS_TOL-tight; the others are only as precise as deciding Psi(s)
    against 1 required.  None is made at the root.
    """

    vertices: tuple[int, ...]
    r: float
    root: float
    subcritical: bool
    evaluations: tuple[tuple[float, float], ...]


def solve_sr(sys: MarkovSystem, scope, r, tol: float = ROOT_TOL) -> SpectralSolution:
    """Solve Psi_scope(s) = 1 for the unique positive root by bisection.

    The upper bracket is doubled from 1 until Psi < 1 (guaranteed to happen:
    as s -> infinity row sums drop below 1), and a ValueError is raised past
    s = 2^60, where r is so small that the float weights lose it.  If Psi is
    already below 1 at s = 1e-9, the scope is subcritical and the root is
    reported as 0.  Each comparison of Psi with 1 stops as soon as the radius
    bracket excludes 1; Psi is not evaluated at the root.

    The bisection is replayed inside certified ends a <= root < b found
    beforehand (see _certified_ends): a midpoint at or below a is taken as
    Psi >= 1 and one at or above b as Psi < 1 without evaluating Psi, which
    is sound since Psi decreases strictly.  So the root is the float plain
    bisection returns wherever its comparisons are certified, and only
    midpoints inside (a, b) are evaluated.  The full scope's root is the
    largest component root, critical_analysis's s_r (module docstring).
    """
    rf = float(as_fraction(r))
    verts = _scope_vertices(sys, scope)
    rows, cols, logw = _scope_edges(sys, verts, rf)
    if not rows.size:
        raise NoCycleError(f"scope {verts} has no edges")
    pressure = _Pressure(rows, cols, logw, len(verts), rf)
    evals: list[tuple[float, float]] = []

    def psi(s: float, target: float | None = None) -> tuple[float, float, float]:
        lo, hi, est = pressure(s, target)
        evals.append((s, est))
        return lo, hi, est

    def at_least_one(s: float) -> bool:
        lo, hi, est = psi(s, 1.0)
        return lo >= 1.0 or (hi >= 1.0 and est >= 1.0)

    if not at_least_one(_SUBCRITICAL_PROBE):
        return SpectralSolution(
            vertices=verts, r=rf, root=0.0, subcritical=True, evaluations=tuple(evals)
        )
    lo = _SUBCRITICAL_PROBE
    hi = 1.0
    while at_least_one(hi):
        lo = hi
        hi *= 2.0
        if hi > 2.0**60:
            raise ValueError(
                f"Psi(s) stays >= 1 up to s = 2^60 on scope {verts} at r = {rf!r}: "
                "r log c is lost beside log p in the float weights"
            )
    a, b = _certified_ends(psi, rf, *evals[-2:], tol)  # evaluations at lo and hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= a or (mid < b and at_least_one(mid)):
            lo = mid
        else:
            hi = mid
    return SpectralSolution(
        vertices=verts, r=rf, root=0.5 * (lo + hi), subcritical=False, evaluations=tuple(evals)
    )


def _certified_ends(psi, rf: float, start: tuple[float, float], stop: tuple[float, float], tol: float):
    """Ends a <= root < b with Psi(a) >= 1 and Psi(b) < 1 certified.

    start and stop are the doubling's last two points (s, estimate of Psi),
    lo and hi; psi(s, target) evaluates and records Psi(s).  A secant on log
    Psi in u = s/(s+r), where log Psi is convex (Kingman), starts from them
    and evaluates Psi tightly at each step, kept inside (a, b); an
    evaluation whose bracket clears 1 moves an end.  Once a step would move
    less than tol/16, the root estimate s minus and plus tol/4 are compared
    with 1, each moving its end only if its bracket clears 1.  An end never
    moved stays at lo or hi, which no midpoint of the bisection reaches.
    """
    (a, e0), (b, e1) = start, stop
    u0, f0 = a / (a + rf), math.log(e0)
    u1, f1 = b / (b + rf), math.log(e1)
    s1 = b
    for _ in range(_MAX_SECANT_STEPS):
        if f1 == f0:
            break
        u = u1 - f1 * (u1 - u0) / (f1 - f0)
        s = rf * u / (1.0 - u)
        if abs(s - s1) < tol / 16:
            s1 = s
            break
        if not a < s < b:
            s = 0.5 * (a + b)
        p_lo, p_hi, est = psi(s)
        if p_lo >= 1.0:
            a = s
        elif p_hi < 1.0:
            b = s
        u0, f0, u1, f1, s1 = u1, f1, s / (s + rf), math.log(est), s
    below, above = s1 - tol / 4, s1 + tol / 4
    if a < below < b and psi(below, 1.0)[0] >= 1.0:
        a = below
    if a < above < b and psi(above, 1.0)[1] < 1.0:
        b = above
    return a, b


def left_perron_vector(block: np.ndarray) -> np.ndarray:
    """Normalized positive left eigenvector of an irreducible nonnegative block.

    The Perron kernel on the transpose from the uniform vector, run to its
    stop (Noda's steps, so a few solves); normalized to sum 1.
    """
    b = np.asarray(block, dtype=float)
    k = b.shape[0]
    x = _perron(b.T, np.full(k, 1.0 / k))[3]
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
    sys: MarkovSystem, r, component: Iterable[int], s: float, h_max: int = 64
) -> RowSumBounds:
    """Column sums of A_H(s)^h for h = 1..h_max, with eigenvector bounds.

    The component must be a non-trivial (cyclic) strongly connected set; s is
    normally the global root s_r.  Root error is amplified by the h-th matrix
    power, so deep sums want a root solved tighter than ROOT_TOL.
    """
    verts = _scope_vertices(sys, component)
    a = weight_matrix(sys, verts, r, s)
    if not a.any():
        raise NoCycleError(f"component {verts} is trivial (no internal edges)")
    xi = left_perron_vector(a)
    c1 = float(xi.min() / xi.max())
    c2 = float(xi.max() / xi.min())
    sums = np.empty((h_max, len(verts)))
    power = a
    sums[0] = a.sum(axis=0)
    for h in range(1, h_max):
        power = power @ a
        sums[h] = power.sum(axis=0)
    return RowSumBounds(
        vertices=verts, c1=c1, c2=c2, eigenvector=tuple(float(x) for x in xi), sums=sums
    )


def transient_sums(cs: graphs.CriticalStructure, s, n: int) -> list[float]:
    """Sums of (p_sigma c_sigma^r)^{s/(s+r)} over the words inside F of each
    length l = 1..n, in one pass: the totals of B_F(s)^(l-1) applied to the
    ones vector, B_F the weight matrix on F = cs.transient_set.  All 0.0 when
    F is empty; length-1 words have unit weight, so the first sum is |F|.
    """
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    b = weight_matrix(cs.system, cs.transient_set, cs.r, s)
    vec = np.ones(len(b))
    sums = [float(len(b))]
    for _ in range(n - 1):
        vec = b @ vec
        sums.append(float(vec.sum()))
    return sums


def critical_analysis(sys: MarkovSystem, r) -> graphs.CriticalStructure:
    """The critical structure of sys at order r: its condensation, the root
    of Psi_H = 1 of every component H, attached as `roots` (None for an
    acyclic single-vertex component, whose pressure is identically zero and
    whose root counts as 0), and the critical components they single out.
    Its s_r, the largest root, is the full scope's: readers take it here."""
    cond = graphs.scc_condensation(sys)
    roots = {
        i: None if cond.acyclic[i] else solve_sr(sys, comp, r)
        for i, comp in enumerate(cond.components)
    }
    per = {i: (0.0 if sol is None else sol.root) for i, sol in roots.items()}
    return replace(graphs.critical_structure(sys, r, per, cond), roots=roots)

