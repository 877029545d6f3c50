"""1-D geometric realization, cylinder integration, and Lloyd refinement.

Each vertex i gets a unit root template J_i = [2(i-1), 2(i-1)+1]; spacing 2
keeps distinct templates at distance >= 1, which is at least any cylinder
diameter.  Inside a template the children J_ij are laid out left to right in
ascending j, flush to both template ends, with equal gaps

    g_i = (1 - sum_j c_ij) / (deg_i - 1),

so sibling cylinders of J_sigma are separated by at least g_i * |J_sigma| at
every depth.  The per-level separation constant is min_i g_i / max_j c_ij.

The measure is integrated deterministically against a refinement antichain:
every cylinder of the level-K antichain contributes its midpoint, half-width
and mass, giving rigorous two-sided bounds for any codebook alpha:

    lower = sum m * max(0, d(mid, alpha) - half)^r
    upper = sum m * (d(mid, alpha) + half)^r.

A grid lays out the members under each state of an antichain pass once,
children left to right, so grids come out sorted by midpoint by
construction.  It records the pass's order r and level k; the grid kernels
(sandwich, Lloyd, 2-point optimum, discrete cost) read both from it.

The grid codebook of level k, every member's midpoint, needs no grid at the
integration depth K: its sandwich splits into one term per member, which
depends only on the member's key (last vertex, p, c).  `member_sandwich`
lays out each key's level-K cylinders once, in the key's own unit
coordinates, and certifies the rounding; `error_curve` integrates unrefined
codebooks this way.

In one dimension the cells of a nearest-point assignment are intervals, so
every cell is a contiguous slice of the grid.  The cells of a codebook are
solved together, with no loop over cells: the best point of a cell is its
mean for r=2 (two `np.add.reduceat`), its weighted median for r=1 (one
`np.cumsum`, one `np.searchsorted`) and for any other order r > 1 the root
of the cost's derivative, found for every cell at once by a safeguarded
Illinois regula falsi on the derivative, which keeps a sign bracket of the
root, one `np.add.reduceat` per probe, down to width 1e-12.
Orders below 1 are refused: their cell cost is not convex.  Lloyd
refinement alternates assignment with these center updates; a step is
accepted only if the sandwich upper bound does not increase, so the reported
bound is non-increasing by construction.  The exact 2-point optimum is a
branch and bound over the cuts of the grid, one path for every order; at
r = 1 all its cuts read their medians from one cumulative sum, and at other
orders a cut's centers are bracketed by those of its evaluated neighbours.
Dot products over the grid use numpy's own loop, not BLAS, so no sum depends
on the thread count.  A seeded Monte Carlo sampler is a validation sidecar only.
It walks all samples at once: each step orders them by vertex with one sort
of packed (vertex, sample index) keys and picks every edge by comparing the
draws with its vertex's cdf values.  It draws the same stream as one
`Generator.choice` call per vertex and step, so its output is fixed by the
seed alone.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import antichain as antichain_mod
from . import spectral
from .antichain import DEFAULT_CAPACITY, ScanResult
from .graphs import CriticalStructure
from .model import MarkovSystem, as_fraction, validate_word

# grid cells per sandwich pass: its temporaries stay a few MB where grid-sized
# ones added several copies of the grid to the peak memory of verify
_SANDWICH_CHUNK = 1 << 16
# chain steps the sampler may take before its cylinders reach the resolution
_SAMPLE_STEPS = 10_000
# relative slack of the 2-point pruning test: computed side costs are
# monotone in the cut only up to rounding
_PRUNE_SLACK = 1e-13
# unit roundoff of float64 arithmetic
_UNIT_ROUNDOFF = 2.0**-53
# probes a cell center may take past the count bisection needs
_SPARE_PROBES = 3
_LLOYD_REL_TOL = 1e-9  # Lloyd stops at a smaller relative gain in the upper bound
_CURVE_LLOYD_ITERS = 50  # Lloyd steps per codebook of a refined error curve
_SAMPLE_RESOLUTION = 1e-12  # sampled cylinders shorter than this are points


class InfeasibleLayoutError(ValueError):
    """Raised when a row's child ratios cannot fit disjointly in a template."""


class UnsupportedOrderError(ValueError):
    """Raised for cell recentering (Lloyd, quantile, 2-point) with order r < 1."""


class SamplingResolutionError(RuntimeError):
    """Raised when sampled cylinders stay above the resolution after every step."""


@dataclass(frozen=True, eq=False)
class Realization:
    """Concrete interval layout of the graph-directed construction."""

    system: MarkovSystem
    root_left: tuple[Fraction, ...]  # template left endpoints, by vertex
    placement: dict[tuple[int, int], tuple[Fraction, Fraction]]  # (i,j) -> (offset, ratio)
    row_gaps: tuple[Fraction, ...]
    row_seps: tuple[Fraction, ...]  # gap / max child ratio, rows with >= 2 children
    sep_t: Fraction

    def layout_floats(self):
        """(root_left, placement) in floats, for grids and the sampler."""
        roots = {v: float(self.root_left[v - 1]) for v in self.system.vertices}
        place = {e: (float(o), float(rt)) for e, (o, rt) in self.placement.items()}
        return roots, place


def realize(sys: MarkovSystem) -> Realization:
    """Lay out the templates and their children; fails if a row overflows."""
    placement: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    gaps: list[Fraction] = []
    seps: list[Fraction] = []
    for i in sys.vertices:
        succ = sys.successors(i)
        ratios = [sys.edge_c(i, j) for j in succ]
        total = sum(ratios)
        if total >= 1:
            raise InfeasibleLayoutError(
                f"row {i}: child ratios sum to {float(total):.6g} >= 1"
            )
        deg = len(succ)
        gap = (1 - total) / (deg - 1) if deg >= 2 else Fraction(0)
        off = Fraction(0)
        for j, ratio in zip(succ, ratios):
            placement[(i, j)] = (off, ratio)
            off += ratio + gap
        gaps.append(gap)
        if deg >= 2:
            seps.append(gap / max(ratios))
    if not seps:
        raise InfeasibleLayoutError("no row has two children; nothing to separate")
    return Realization(
        system=sys,
        root_left=tuple(Fraction(2 * (i - 1)) for i in sys.vertices),
        placement=placement,
        row_gaps=tuple(gaps),
        row_seps=tuple(seps),
        sep_t=min(seps),
    )


def cylinder_interval(rz: Realization, word: Sequence[int]) -> tuple[Fraction, Fraction]:
    """(left endpoint, length) of J_word, exact; length equals c_word."""
    w = validate_word(rz.system, word)
    if not w:
        raise ValueError("cylinder_interval requires a non-empty word")
    left = rz.root_left[w[0] - 1]
    length = Fraction(1)
    for i, j in zip(w, w[1:]):
        off, ratio = rz.placement[(i, j)]
        left += off * length
        length *= ratio
    return left, length


@dataclass(frozen=True)
class CylinderGrid:
    """Midpoint discretization of a refinement antichain."""

    k: int
    r: float
    mids: np.ndarray
    halves: np.ndarray
    masses: np.ndarray

    @property
    def size(self) -> int:
        return int(self.mids.size)


def _layout(sys: MarkovSystem, place: dict, levels, k: int) -> tuple[np.ndarray, list[int]]:
    """Rows (left, length, mass) of the level-k members under each first-depth state.

    Words in one state of the antichain pass have the same members below
    them, up to the affine map of their own cylinder.  So the members under
    each state are laid out once, relative to its cylinder, from the deepest
    depth up: rows of one array per depth, a slice per state.  A member slot,
    one to no state or to a state not inner at level k, writes its edge's
    (offset, ratio, p); a slot to a state writes that state's slice scaled by
    (ratio, ratio, p) and shifted by the offset.
    Returns the first depth's array and the bounds of each state's slice in
    it.  Slots follow `sys.edges`, the order in which `realize` places
    children left to right, so every slice comes out sorted by position.
    """
    unit = np.array([[*place[e], float(sys.edge_p(*e))] for e in sys.edges]).T
    scale, off = unit[[1, 1, 2]], unit[0].tolist()
    below = [0]  # state -> start of its slice, then the total
    nxt = None  # layout of the depth below; only two depths are alive at once
    # the states of a depth inner only above level k are level-k members or
    # lie below them, so the layout starts above the first such depth
    cut = next((i for i, lvl in enumerate(levels) if min(lvl.inner) > k), len(levels))
    inner = levels[cut].inner if cut < len(levels) else ()  # of the states of the depth below
    for lvl in reversed(levels[:cut]):
        edge, child = np.array(lvl.edge), np.array(lvl.child)
        # slot -1, to no state, reads the appended k + 1; a member writes one row
        member = np.append(inner, k + 1)[child] > k
        count = np.append(np.diff(below), 1)[np.where(member, -1, child)]
        start = np.concatenate(([0], np.cumsum(count)))
        cur = np.empty((3, start[-1]))
        cur[:, start[:-1][member]] = unit[:, edge[member]]
        for pos, e, t in zip(*(a[~member].tolist() for a in (start[:-1], edge, child))):
            lo, hi = below[t], below[t + 1]
            np.multiply(nxt[:, lo:hi], scale[:, e : e + 1], out=cur[:, pos : pos + hi - lo])
            cur[0, pos : pos + hi - lo] += off[e]
        below = start[np.array(lvl.first)].tolist()
        nxt, inner = cur, lvl.inner
    return nxt, below


def level_grid(rz: Realization, res: ScanResult) -> CylinderGrid:
    """(midpoint, half-width, mass) of every cylinder of the antichain of
    `res`, a pass from the vertices of `rz`'s system, at its order and level.

    The pass is laid out by `_layout`; the roots' slices, shifted by their
    templates and scaled by chi, are the grid, sorted by midpoint, so Lloyd
    cells are contiguous slices.
    """
    sys = rz.system
    roots, place = rz.layout_floats()
    (mids, halves, masses), below = _layout(sys, place, res.levels, res.k)
    for v, chi, lo, hi in zip(sys.vertices, sys.chi_float(), below, below[1:]):
        mids[lo:hi] += roots[v]
        masses[lo:hi] *= chi
    halves *= 0.5
    mids += halves
    return CylinderGrid(k=res.k, r=float(res.r), mids=mids, halves=halves, masses=masses)


@dataclass(frozen=True, eq=False)
class Codebook:
    """A finite candidate support set; points are kept sorted and distinct."""

    points: np.ndarray  # float64, read-only

    def __post_init__(self):
        # np.unique would import numpy.ma on its first call
        pts = np.sort(np.asarray(self.points, dtype=np.float64), axis=None)
        if not pts.size:
            raise ValueError("codebook must contain at least one point")
        pts = pts[np.concatenate(([True], pts[1:] != pts[:-1]))]
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True)
class ErrorEstimate:
    """Rigorous two-sided bounds on the r-th power quantization error."""

    n: int
    r: float
    lower: float
    upper: float
    integration_depth: int
    keys: int = 0  # member keys of a per-key sandwich; 0 on a grid
    rows: int = 0  # rows laid out under those keys

    @property
    def width(self) -> float:
        return self.upper - self.lower


def grid_codebook(grid: CylinderGrid) -> Codebook:
    """Codebook of all cylinder midpoints of a grid."""
    return Codebook(points=grid.mids)


def _nearest_distance(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # filled in place, so at most three arrays of len(xs) are alive at once
    idx = np.searchsorted(points, xs)
    left = xs - points[np.maximum(idx, 1) - 1]
    left[idx == 0] = np.inf
    beyond = idx == points.size
    np.minimum(idx, points.size - 1, out=idx)
    right = points[idx]
    right -= xs
    right[beyond] = np.inf
    return np.minimum(left, right, out=left)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) in numpy's own loop: a BLAS dot rounds by its thread count."""
    return float(np.einsum("i,i->", a, b))


def _sandwich(grid: CylinderGrid, points: np.ndarray) -> tuple[float, float]:
    lower = upper = 0.0
    for lo in range(0, grid.size, _SANDWICH_CHUNK):
        part = slice(lo, lo + _SANDWICH_CHUNK)
        d, h, m = _nearest_distance(points, grid.mids[part]), grid.halves[part], grid.masses[part]
        lower += _dot(m, np.maximum(d - h, 0.0) ** grid.r)
        upper += _dot(m, (d + h) ** grid.r)
    return lower, upper


def integrate_error(grid: CylinderGrid, codebook: Codebook) -> ErrorEstimate:
    """Sandwich the integral of d(x, codebook)^r over the grid's cells.

    The order is the grid's `r` and the integration depth its level `k`.
    """
    lower, upper = _sandwich(grid, codebook.points)
    return ErrorEstimate(
        n=codebook.size, r=grid.r, lower=lower, upper=upper, integration_depth=grid.k
    )


def member_sandwich(
    rz: Realization, res: ScanResult, depth: int, *, capacity: int = DEFAULT_CAPACITY
) -> ErrorEstimate:
    """Sandwich of the grid codebook of `res`, a level-k pass from the vertices
    of `rz`'s system (every member's midpoint), at `depth`.

    With s = min(sep_t, 1), every other level-k midpoint lies at least
    s * |J_sigma| outside a member's cylinder J_sigma.  So at local position
    y in J_sigma the distance to the codebook is at most |y - 1/2| * |J_sigma|
    and at least min(|y - 1/2|, 1/2 + s - |y - 1/2|) * |J_sigma|, exactly
    |y - 1/2| * |J_sigma| when sep_t >= 1/2.  Both bounds are 1-Lipschitz in
    y, so each level-`depth` cylinder under sigma, at local midpoint m with
    half-width h, contributes its relative mass times (|m - 1/2| + h)^r to
    the upper sum and (max(0, min(|m - 1/2|, 1/2 + s - |m - 1/2|) - h))^r
    to the lower.  Those local sums depend on the member only through its key
    (last vertex, p, c): the member table is folded by key, each key laid out
    once from the tree shape of one pass from the keys, and the sandwich is
    Sum over keys of (sum of chi) * p * c^r * local sum.  No grid is built.

    The local distances are widened by (5 * layout depth + 8) * 2^-53, a
    bound on the rounding of the unit-cylinder layout, and the sums by their
    relative rounding bound, so [lower, upper] holds the exact sandwich.
    n is the exact phi_k.
    """
    if depth < res.k:
        raise ValueError(f"integration depth {depth} is below the codebook level {res.k}")
    sys = rz.system
    rq = res.r
    rf = float(rq)
    keys = antichain_mod.member_keys(sys, res)
    if depth > res.k:
        levels = antichain_mod.descend(sys, rq, depth, keys, res.depth_max, capacity=capacity)
        (left, length, mass), below = _layout(sys, rz.layout_floats()[1], levels, depth)
    else:  # a level-k member is its own only level-k cylinder
        levels = ()
        left, length, mass = np.zeros(len(keys)), np.ones(len(keys)), np.ones(len(keys))
        below = list(range(len(keys) + 1))
    slack = (5 * len(levels) + 8) * _UNIT_ROUNDOFF
    half = 0.5 * length
    a = np.abs(left + half - 0.5)
    far = (0.5 + float(min(rz.sep_t, 1))) - a
    upper_local = np.add.reduceat(mass * (a + half + slack) ** rf, below[:-1])
    near = np.maximum(np.minimum(a, far) - half - slack, 0.0)
    lower_local = np.add.reduceat(mass * near**rf, below[:-1])
    if rq.denominator == 1:
        coef = [float(w * p * c**rq.numerator) for (_v, p, c), w in keys.items()]
    else:
        coef = [float(w * p) * float(c) ** rf for (_v, p, c), w in keys.items()]
    # relative rounding: 2 units per layout depth in the masses, one per row
    # in a key's sum, r + 4 in a coefficient, a few in the powers and products
    widen = (2 * len(levels) + int(np.diff(below).max()) + rf + 16) * _UNIT_ROUNDOFF
    return ErrorEstimate(
        n=res.phi, r=rf,
        lower=math.fsum(np.multiply(coef, lower_local).tolist()) * (1.0 - widen),
        upper=math.fsum(np.multiply(coef, upper_local).tolist()) * (1.0 + widen),
        integration_depth=depth, keys=len(keys), rows=int(below[-1]),
    )


def _weighted_medians(x, cum, starts, ends) -> np.ndarray:
    """Weighted median of each cell x[starts[i]:ends[i]], its r = 1 center.

    That is the cell's first point whose cumulative mass reaches half the
    cell's.  The cells are non-empty and adjacent, the first starting at 0,
    and `cum` is the cumulative sum of the masses of x, so one prefix sum
    serves every call over the same x.
    """
    top = cum[ends - 1]  # mass up to each cell's end
    half = 0.5 * (np.concatenate(([0.0], top[:-1])) + top)
    # half <= top, so only a cell whose mass rounds away can land before it
    return x[np.maximum(np.searchsorted(cum, half), starts)]


def _cell_centers(mids, masses, starts, ends, r: float, bracket=None) -> np.ndarray:
    """Best single point of each cell mids[starts[i]:ends[i]] of the sorted grid.

    An empty cell gets NaN and a one-point cell its point; the other cells
    must be adjacent, each ending where the next one starts, and are solved
    together over the slice they span.  At r = 2 a center is the mean, kept
    in its cell against rounding; at r = 1 the first point whose cumulative
    mass reaches half its cell's, by one cumsum and one searchsorted.  At any
    other order r > 1 a center is the root of the derivative
    sum m * sign(t - x) * |t - x|^(r-1) of the cell's strictly convex cost.
    Each cell's bracket runs from its first to its last midpoint, or, where
    `bracket` gives (lows, highs) per cell, over their overlap with it; its
    slope is taken at both ends and then at one probe per step, one reduceat
    over the span each.  A probe is the Illinois regula falsi point (Dowell
    and Jarratt, BIT 11, 1971): the secant of the two ends' slopes, the slope
    of an end kept twice in a row halved.  It is kept 5e-13 inside each end
    and within ITP's projection radius of the midpoint (Oliveira and
    Takahashi, ACM TOMS 47, 2020), which lets no cell take more than
    _SPARE_PROBES probes beyond bisection's count, and is the midpoint where
    it would not land strictly inside.  The probe replaces the end whose
    slope has its sign, both at a zero slope.  A cell stops at width 1e-12
    or, past 8192 where one ulp is wider, at two adjacent floats, and
    returns the bracket's midpoint.  If rounding leaves a root outside a
    given bracket (an end's slope of the wrong sign), the cells are solved
    from their own ends.  Orders below 1 raise `UnsupportedOrderError`.
    """
    if r < 1.0:
        raise UnsupportedOrderError(f"recentering a cell needs r >= 1, got {r}")
    out = np.full(starts.size, np.nan)
    full = ends > starts
    starts, ends = starts[full], ends[full]
    if not starts.size:
        return out
    lo, hi = int(starts[0]), int(ends[-1])
    x, m = mids[lo:hi], masses[lo:hi]
    offsets, counts = starts - lo, ends - starts
    a, b = mids[starts], mids[ends - 1]  # every center lies in [a, b]
    if r == 2.0:
        out[full] = np.clip(np.add.reduceat(m * x, offsets) / np.add.reduceat(m, offsets), a, b)
        return out
    if r == 1.0:
        out[full] = _weighted_medians(x, np.cumsum(m), offsets, offsets + counts)
        return out
    neg = np.empty(x.size, dtype=bool)

    def slopes(t: np.ndarray) -> np.ndarray:
        # each cell's cost derivative over r at its point t; the signs go to a
        # bool array, so one float array of the span is alive
        d = t.repeat(counts)
        np.subtract(d, x, out=d)
        np.less(d, 0.0, out=neg)
        np.abs(d, out=d)
        np.power(d, r - 1.0, out=d)
        np.multiply(d, m, out=d)
        np.negative(d, out=d, where=neg)
        return np.add.reduceat(d, offsets)

    if bracket is not None:
        np.maximum(a, bracket[0][full], out=a)
        np.minimum(b, bracket[1][full], out=b)
    fa, fb = slopes(a), slopes(b)
    if bracket is not None and ((fa > 0.0) | (fb < 0.0) | (a > b)).any():
        # rounding left a root outside the caller's bracket; the cells' own
        # ends hold it
        out[full] = _cell_centers(mids, masses, starts, ends, r)
        return out
    t, low, high, mid = np.empty(a.size), np.empty(a.size), np.empty(a.size), 0.5 * (a + b)
    kept = np.zeros(a.size, dtype=np.int8)  # end the last probe kept: -1 a, 1 b
    # ITP's projection: a probe within reach - (b - a) / 2 of the midpoint
    # leaves a bracket at most `reach` wide.  Reach halves with each probe and
    # is 0.8e-12, under the stop width with room for rounding, after
    # _SPARE_PROBES probes more than bisection takes
    reach = np.ldexp(0.4e-12 * 2.0**_SPARE_PROBES, np.frexp((b - a) / 1e-12)[1])
    while (live := (b - a > 1e-12) & (a < mid) & (mid < b)).any():
        # regula falsi a - fa (b - a) / (fb - fa), kept half a stop width
        # inside each end and within reach, or the midpoint where that is not
        # strictly inside the bracket
        with np.errstate(divide="ignore", invalid="ignore"):
            np.subtract(b, a, out=t)
            t *= fa
            t /= np.subtract(fb, fa, out=low)
            np.subtract(a, t, out=t)
        np.maximum(np.add(a, 0.5e-12, out=low), b - reach, out=low)
        np.minimum(np.subtract(b, 0.5e-12, out=high), a + reach, out=high)
        np.clip(t, low, high, out=t)
        np.copyto(t, mid, where=~((a < t) & (t < b)))
        reach *= 0.5
        ft = slopes(t)
        up, down = live & (ft <= 0.0), live & (ft >= 0.0)  # t replaces a, b; both at a root
        # Illinois: an end kept twice in a row has its slope halved
        fb[up & (kept == 1)] *= 0.5
        fa[down & (kept == -1)] *= 0.5
        np.copyto(a, t, where=up)
        np.copyto(fa, ft, where=up)
        np.copyto(b, t, where=down)
        np.copyto(fb, ft, where=down)
        np.copyto(kept, np.int8(1), where=up)
        np.copyto(kept, np.int8(-1), where=down)
        np.add(a, b, out=mid)
        mid *= 0.5
    out[full] = mid
    return out


def _respawn_order(grid: CylinderGrid) -> np.ndarray:
    # heaviest first, leftmost on ties
    return np.lexsort((grid.mids, -grid.masses))


def lloyd_refine(
    grid: CylinderGrid, initial: Codebook, max_iter: int = 100
) -> tuple[Codebook, list[ErrorEstimate]]:
    """Refine a codebook by Lloyd iteration on the grid's discretized measure.

    Assignment maps each cylinder midpoint to its nearest code point (ties to
    the lower index); the update recenters each cell for the L_r objective.
    Empty cells are respawned at the heaviest midpoint not already used.  A
    step is kept only when the sandwich upper bound does not increase, and
    iteration stops at relative improvement < 1e-9 or max_iter; the trace
    of accepted estimates is therefore non-increasing in `upper`.  The order
    is the grid's `r` and the integration depth its level `k`.
    """
    rf = grid.r
    if rf < 1.0:
        raise UnsupportedOrderError(f"Lloyd refinement needs r >= 1, got {rf}")
    mids, masses = grid.mids, grid.masses
    target_n = initial.size
    respawn = None

    best = initial.points
    lo0, up0 = _sandwich(grid, best)
    trace = [
        ErrorEstimate(n=initial.size, r=rf, lower=lo0, upper=up0, integration_depth=grid.k)
    ]
    for _ in range(max_iter):
        # assignment: boundaries halfway between consecutive points; a midpoint
        # exactly on a boundary joins the lower cell
        bounds = 0.5 * (best[1:] + best[:-1])
        starts = np.concatenate(([0], np.searchsorted(mids, bounds, side="right")))
        ends = np.concatenate((starts[1:], [mids.size]))
        centers = _cell_centers(mids, masses, starts, ends, rf)
        new_pts = centers[ends > starts].tolist()  # empty cells are refilled below
        while len(new_pts) < target_n:
            if respawn is None:
                respawn = _respawn_order(grid)
            used = set(new_pts)
            for gi in respawn:
                cand = float(mids[gi])
                if cand not in used:
                    new_pts.append(cand)
                    break
            else:
                break  # fewer distinct midpoints than code points
        cand_arr = np.array(sorted(set(new_pts)))
        if cand_arr.size == best.size and np.array_equal(cand_arr, best):
            break  # fixed point
        lo_c, up_c = _sandwich(grid, cand_arr)
        if up_c > trace[-1].upper:
            break  # step would loosen the certified bound; keep best-so-far
        best = cand_arr
        trace.append(
            ErrorEstimate(n=int(cand_arr.size), r=rf, lower=lo_c, upper=up_c,
                          integration_depth=grid.k)
        )
        if trace[-2].upper - up_c <= _LLOYD_REL_TOL * max(up_c, 1e-300):
            break
    return Codebook(points=best), trace


def quantile_codebook(grid: CylinderGrid, n: int, r: float) -> Codebook:
    """Deterministic n-point warm start: r-centers of equal-mass quantile cells."""
    if n < 1:
        raise ValueError("need n >= 1 code points")
    cum = np.cumsum(grid.masses)
    cuts = np.searchsorted(cum, cum[-1] * np.arange(n + 1) / n, side="left")
    cuts[0], cuts[-1] = 0, grid.size
    centers = _cell_centers(grid.mids, grid.masses, cuts[:-1], cuts[1:], float(r))
    return Codebook(points=centers[cuts[1:] > cuts[:-1]])


def discrete_cost(grid: CylinderGrid, codebook: Codebook) -> float:
    """Plain discretized objective sum m * d(mid, alpha)^r (no cylinder radii)."""
    d = _nearest_distance(codebook.points, grid.mids)
    return _dot(grid.masses, d**grid.r)


def optimal_two_point(grid: CylinderGrid) -> tuple[Codebook, float]:
    """Exact 2-point optimum of the discretized measure, by branch and bound.

    In one dimension the cells of an optimal quantizer are intervals, so the
    optimum cuts the sorted midpoints at some c into a prefix [0, c) and a
    suffix [c, n), each recentered as `_cell_centers` does; at r = 1 every
    cut reads its two weighted medians from one shared cumulative sum of the
    masses, which is the one `_cell_centers` takes over the whole grid.  The
    best 1-point cost f_L(c) of the prefix never falls as c moves right and
    that of the suffix f_R(c) never rises, so no cut in [lo, hi] costs less
    than f_L(lo) + f_R(hi).  Ranges of cuts are halved lowest bound first,
    each cut evaluated once, and a range is dropped once its bound is within
    _PRUNE_SLACK (relative) of the best cut found.  Both centers, the
    prefix's and the suffix's, move right as the cut does, so at r != 1 the
    nearest cuts evaluated on either side bracket a new cut's two centers,
    which `_cell_centers` then searches only between them.  The points and
    the cost returned are those of recentering the chosen cut directly, at
    the grid's order `r`.
    """
    rf = grid.r
    mids, masses = grid.mids, grid.masses
    n = grid.size
    if n < 2:
        raise ValueError("optimal_two_point needs a grid of at least two cells")
    sides: dict[int, tuple] = {}  # cut -> (f_L, f_R, prefix center, suffix center)
    # at r = 1 every cut's two cells span the grid, so one prefix sum serves all
    cum = np.cumsum(masses) if rf == 1.0 else None

    def side(cut: int) -> tuple:
        if cut not in sides:
            starts, ends = np.array([0, cut]), np.array([cut, n])
            if cum is None:
                # both centers move right with the cut, so the centers of the
                # nearest cuts evaluated on either side bracket them
                below = max((c for c in sides if c < cut), default=None)
                above = min((c for c in sides if c > cut), default=None)
                bracket = (
                    np.array(sides[below][2:] if below else (-np.inf, -np.inf)),
                    np.array(sides[above][2:] if above else (np.inf, np.inf)),
                )
                a, b = _cell_centers(mids, masses, starts, ends, rf, bracket)
            else:
                a, b = _weighted_medians(mids, cum, starts, ends)
            f_l = _dot(masses[:cut], np.abs(mids[:cut] - a) ** rf)
            sides[cut] = (f_l, _dot(masses[cut:], np.abs(mids[cut:] - b) ** rf), a, b)
        return sides[cut]

    def cost(cut: int) -> float:
        return side(cut)[0] + side(cut)[1]

    best = min(1, n - 1, key=cost)
    ranges = [(side(1)[0] + side(n - 1)[1], 1, n - 1)]
    while ranges and ranges[0][0] < (1.0 - _PRUNE_SLACK) * cost(best):
        _, lo, hi = heapq.heappop(ranges)
        mid = (lo + hi) // 2
        best = min(best, mid, key=cost)
        for left, right in ((lo, mid), (mid, hi)):
            if right - left > 1:  # holds cuts not yet evaluated
                heapq.heappush(ranges, (side(left)[0] + side(right)[1], left, right))
    return Codebook(points=side(best)[2:]), cost(best)


@dataclass(frozen=True)
class CurveRow:
    """One point of the quantization error curve at n = phi_k."""

    k: int
    n: int
    lower: float
    upper: float
    corrected: float
    uncorrected: float
    iterations: int


def _curve_row(k: int, est: ErrorEstimate, r, cs: CriticalStructure, iterations: int) -> CurveRow:
    ratios = antichain_mod.theorem_ratios(est.upper, est.n, r, cs, f"upper at k={k}")
    return CurveRow(k, est.n, est.lower, est.upper, *ratios, iterations)


def curve_row(rz: Realization, res: ScanResult, depth: int, cs: CriticalStructure, *,
              capacity: int = DEFAULT_CAPACITY) -> CurveRow:
    """The unrefined `error_curve` row of the pass `res` from the vertices of
    `rz`'s system: its grid codebook sandwiched per member key at `depth`."""
    return _curve_row(res.k, member_sandwich(rz, res, depth, capacity=capacity), res.r, cs, 0)


def error_curve(
    sys: MarkovSystem,
    r,
    k_range,
    refine: bool = False,
    depth_offset: int = 6,
    *,
    cs: CriticalStructure | None = None,
    capacity: int = DEFAULT_CAPACITY,
) -> list[CurveRow]:
    """Two-sided error bounds at the antichain codebook sizes n = phi_k.

    Codebooks are the level-k cylinder midpoints; integration runs at depth
    k + depth_offset, all levels from one antichain pass.  Unrefined rows are
    `curve_row`s, with no grid; refined codebooks start from the level-k
    grid's midpoints and are Lloyd-refined on the level-(k + depth_offset)
    grid for at most 50 steps, each grid laid out once and dropped after its
    last row.  The normalized columns are `antichain.theorem_ratios` of upper
    at n, taken in logs: an upper below the normal float range raises
    ValueError naming k.
    """
    if depth_offset < 0:
        raise ValueError(f"depth offset must be >= 0, got {depth_offset}")
    if cs is None:
        cs = spectral.critical_analysis(sys, r)
    rz = realize(sys)
    ks = tuple(k_range)
    depths = [k + depth_offset for k in ks] if refine else []
    passes = antichain_mod.scan_levels(sys, r, {*ks, *depths}, capacity=capacity)
    if not refine:
        return [curve_row(rz, passes[k], k + depth_offset, cs, capacity=capacity) for k in ks]
    grids: dict[int, CylinderGrid] = {}
    rows: list[CurveRow] = []
    for i, k in enumerate(ks):
        for lvl in (k, k + depth_offset):
            grids[lvl] = grids.get(lvl) or level_grid(rz, passes.pop(lvl))
        book = grid_codebook(grids[k])
        trace = lloyd_refine(grids[k + depth_offset], book, max_iter=_CURVE_LLOYD_ITERS)[1]
        rows.append(_curve_row(k, trace[-1], r, cs, len(trace) - 1))
        later = ks[i + 1 :]
        grids = {lvl: g for lvl, g in grids.items() if lvl in later or lvl - depth_offset in later}
    return rows


def sample_support_points(
    rz: Realization, n_samples: int, seed: int
) -> np.ndarray:
    """Seeded i.i.d. sample of the measure, to cylinder resolution.

    Walks the chain vectorized until every cylinder is shorter than 1e-12,
    then returns the cylinder midpoints.  Raises
    SamplingResolutionError if that takes more than 10,000 steps, and
    ValueError for fewer than one sample.

    Each step sorts the packed keys (vertex << bits) | sample index, which
    are distinct, so their low bits come out in the stable vertex order, and
    hands the step's uniform draws out in that order.  A sample picks its
    edge by counting the inner cdf values of its vertex's row that are <= its
    draw: the comparisons `Generator.choice` makes with searchsorted, since
    every cdf ends at exactly 1.0, which no draw reaches.  So the draws are
    consumed in the order that one choice call per vertex (ascending), over
    its samples in index order, would consume them, and the samples are
    bit-identical to that per-vertex walk for every seed.
    """
    if n_samples < 1:
        raise ValueError(f"sampling needs at least 1 sample, got {n_samples}")
    sysm = rz.system
    rng = np.random.default_rng(seed)
    roots, place = rz.layout_floats()
    edges = sysm.edges  # lexicographic: each row's edges are contiguous, by successor
    succ = np.array([j - 1 for _, j in edges], dtype=np.intp)
    off = np.array([place[e][0] for e in edges])
    ratio = np.array([place[e][1] for e in edges])
    first = np.searchsorted([i for i, _ in edges], np.arange(1, sysm.n + 1))
    # inner cdf values, one row per edge rank and one column per vertex; +inf
    # pads the rows of vertices with fewer edges, and no draw reaches it
    inner = np.full((int(np.diff(first, append=len(edges)).max()) - 1, sysm.n), np.inf)
    for v, i in enumerate(sysm.vertices):  # built as Generator.choice builds them
        cdf = np.array([float(sysm.edge_p(i, j)) for j in sysm.successors(i)]).cumsum()
        cdf /= cdf[-1]
        inner[: cdf.size - 1, v] = cdf[:-1]
    cur = rng.choice(sysm.n, size=n_samples, p=sysm.chi_float())  # 0-based vertices
    left = np.array([roots[v] for v in sysm.vertices]).take(cur)
    length = np.ones(n_samples)
    bits = (n_samples - 1).bit_length()
    key = np.empty(n_samples, dtype=np.min_scalar_type(((sysm.n - 1) << bits) | (n_samples - 1)))
    index = np.arange(n_samples, dtype=key.dtype)
    # per-step work reuses these; take with out= skips its copy only when not
    # asked to check bounds, and every index here is in range.  The order is
    # spent on handing out the draws before the edges are picked into it.
    order = edge = np.empty(n_samples, dtype=np.intp)
    draw, buf = np.empty(n_samples), np.empty(n_samples)
    hit = np.empty(n_samples, dtype=bool)
    steps = 0
    while float(length.max()) >= _SAMPLE_RESOLUTION:
        if steps == _SAMPLE_STEPS:
            raise SamplingResolutionError(
                f"cylinders still {float(length.max()):.3g} long after {steps} steps, "
                f"above the resolution {_SAMPLE_RESOLUTION:g}"
            )
        steps += 1
        np.left_shift(cur, bits, out=key, casting="unsafe")
        key |= index
        # the keys are distinct, so any sort is stable: on 100,000 samples
        # (numpy 2.4, 2-core Xeon) sorting them in place takes about 0.4 ms,
        # a stable argsort of one-byte vertex keys 1.1 ms
        key.sort()
        np.bitwise_and(key, (1 << bits) - 1, out=order, casting="unsafe")
        draw[order] = rng.random(out=buf)
        first.take(cur, out=edge, mode="clip")
        for row in inner:
            row.take(cur, out=buf, mode="clip")
            np.less_equal(buf, draw, out=hit)
            edge += hit
        off.take(edge, out=buf, mode="clip")
        buf *= length
        left += buf
        length *= ratio.take(edge, out=buf, mode="clip")
        succ.take(edge, out=cur, mode="clip")
    return left + 0.5 * length


def monte_carlo_error(
    rz: Realization, codebook: Codebook, r, n_samples: int, seed: int
) -> tuple[float, float]:
    """(estimate, standard error) of the r-th power error by Monte Carlo."""
    if n_samples < 2:
        raise ValueError(f"Monte Carlo needs at least 2 samples, got {n_samples}")
    xs = sample_support_points(rz, n_samples, seed)
    d = _nearest_distance(codebook.points, xs) ** float(as_fraction(r))
    mean = float(d.mean())
    stderr = float(d.std(ddof=1) / math.sqrt(n_samples))
    return mean, stderr
