"""Maximal antichains of the word space under the one-step weight threshold.

For level k and order r, the antichain holds exactly the words sigma whose
weight w_sigma = p_sigma * c_sigma^r first drops strictly below eta_lo^k,
where eta_lo = p_min * c_min^r over edges:

    w_parent >= eta_lo^k > w_sigma.

Ties (w == eta_lo^k exactly) stay internal, so a tied word lands in a later
antichain.  Every vertex has out-degree >= 2 and every edge weight is < 1, so
the expansion from all roots terminates in a finite maximal antichain
partitioning the measure.

Every statistic of the antichain depends on a word only through its state:
its last vertex, the ordered chain of critical components it visited (the
condensation is a DAG, so first-visit order is well defined), the initial
weight chi of its root and its exact weights (p_sigma, c_sigma).  Words with
equal states have identical subtrees, so one level-synchronous pass over
states carrying word multiplicities counts the antichain exactly without
visiting its words (the transfer-operator view of graph-directed
constructions, Mauldin-Williams 1988).  One pass serves a set of levels: a
word is inner at level k when w >= eta_lo^k, and as every edge weight is at
least eta_lo, one compare per child decides whether it is inner at its
parent's lowest inner level l or only at l + 1, and so a member of level l
alone.  Membership is exact: p^b * c^a is compared against
p_min^{lb} * c_min^{la} for r = a/b in lowest terms, in integers over one
common scale per depth.  The pass keeps a member table per level, each
member's state with its word count per depth, and the tree shape: per depth,
which state every child of a state goes to and each state's lowest inner
level.  A table folds, in integers, into a histogram keyed by (chain, chi,
p, c) with p and c as numerator and denominator in lowest terms, so counts
and the sums built from them do not depend on traversal order, and by
`member_keys` into (last vertex, p, c) keys.  Member words are read off
the tree shape, and the geometry module lays out the members' cylinders
under each state once from it; `descend` runs the same pass from member
keys, one word each, to a deeper threshold.  Each histogram key is weighed
once, in logs taken from its exact integers, so no weight underflows at any
depth; every float statistic is a sum of exp(log count + e * log w) over
those keys.  The histogram in Fractions is built only when read.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import accumulate
from sys import float_info
from typing import Iterable, NamedTuple

from . import spectral
from .graphs import CriticalStructure
from .model import MarkovSystem, Word, as_fraction, edge_extremes

DEFAULT_CAPACITY = 10**8
_EXPONENT_TOL = 1e-10  # `implicit_exponent` narrows its bracket in t to this width

Chain = tuple[int, ...]


class CapacityError(RuntimeError):
    """Raised when an enumeration would exceed the word cap at level `k`."""

    def __init__(self, k: int, capacity: int):
        super().__init__(f"antichain at k={k} exceeds capacity cap {capacity} words")
        self.k = k


class Level(NamedTuple):
    """The tree shape of one depth: where its inner words, merged by state, go.

    At the first depth the states are the roots: in `scan_levels`, state v - 1
    holds vertex v.  The children of state s occupy slots first[s] ..
    first[s + 1] - 1, one per outgoing edge of its vertex in `sys.edges`
    order; the words of a state share its slots.  Read at a level k of the
    pass, a walk from the roots ends at a slot to no state or at the first
    state not inner at k: the level-k members.
    """

    first: tuple[int, ...]  # state -> its first slot; one trailing entry ends the last state
    edge: tuple[int, ...]  # slot -> index of the edge into `sys.edges`
    child: tuple[int, ...]  # slot -> state at the next depth, or -1 when inner at no level
    inner: tuple[int, ...]  # state -> the lowest level of the pass's range its words are inner at


@dataclass(frozen=True)
class ScanResult:
    """One level of an antichain pass.

    `weights` is its histogram in integers: (chain, chi index, P, Dp, C, Dc)
    -> member words, for the members of weights p = P/Dp and c = C/Dc in
    lowest terms whose root has chi = chis[chi index].  `hist` is the same
    histogram keyed by (chain, chi, p, c) in Fractions, in the same order,
    built on first read.
    """

    k: int
    r: Fraction
    phi: int
    depth_min: int
    depth_max: int
    weights: dict = field(repr=False)
    chis: tuple[Fraction, ...] = field(repr=False)  # sorted(set(sys.chi)), as `weights` indexes it
    exact: bool
    levels: tuple[Level, ...] = field(repr=False)  # the tree shape of the whole pass
    # (depth, {state: member words}) per depth with members, states as in `_descend`
    members: tuple[tuple[int, dict], ...] = field(repr=False)

    @functools.cached_property
    def hist(self) -> dict:
        """(chain, chi, p, c) -> number of member words."""
        return {
            (chain, self.chis[chi], Fraction(pn, pd), Fraction(cn, cd)): n
            for (chain, chi, pn, pd, cn, cd), n in self.weights.items()
        }


def _threshold_power(sys: MarkovSystem, rq: Fraction) -> Fraction:
    """eta_lo raised to the b-th power for r = a/b: p_min^b * c_min^a.  Level
    k's threshold is its k-th power."""
    p_lo, c_lo, _, _ = edge_extremes(sys)
    return p_lo**rq.denominator * c_lo**rq.numerator


def _scales(sys: MarkovSystem) -> tuple[int, int]:
    """(dp, dc): the lcm of the edge denominators of p and of c.

    A word of length d has p = P / dp^(d-1) and c = C / dc^(d-1) for integers
    P and C, so at one depth equal weights are equal integers.
    """
    dp = math.lcm(*(sys.edge_p(i, j).denominator for i, j in sys.edges))
    dc = math.lcm(*(sys.edge_c(i, j).denominator for i, j in sys.edges))
    return dp, dc


def _descend(
    sys: MarkovSystem, rq: Fraction, ks: list[int], states: list, counts: list, depth: int,
    cmap: list[int], capacity: int,
) -> tuple[tuple[Level, ...], dict[int, tuple[int, tuple]]]:
    """The pass from `states`, the words of length `depth`, to the antichains of
    the levels `ks`, sorted and distinct.

    A state is (last vertex, chain, index of its root's chi in
    sorted(set(sys.chi)), P, C), P and C over the scales of its depth; counts
    are its word multiplicities; each carries its lowest inner level, ks[0]
    at the start.  Returns the per-depth Levels and, per level, phi and the
    member table: per depth with members, (depth, member words keyed by their
    state).  Raises CapacityError at the first level whose members found plus
    words still to expand exceed `capacity` once every lower level is
    complete: each word left to expand has at least two member descendants,
    so that sum never exceeds the final phi, and at one depth it grows with k.
    """
    if ks[0] < 1:
        raise ValueError(f"level k must be >= 1, got {ks[0]}")
    if rq <= 0:
        raise ValueError(f"order r must be positive, got {rq}")
    a, b = rq.numerator, rq.denominator
    lo, hi = ks[0], ks[-1]
    eta = _threshold_power(sys, rq)
    thr = {k: eta**k for k in range(lo, hi + 1)}
    dp, dc = _scales(sys)
    out: list[list[tuple]] = [[] for _ in range(sys.n + 1)]
    for e, (i, j) in enumerate(sys.edges):
        out[i].append((e, j, int(sys.edge_p(i, j) * dp), int(sys.edge_c(i, j) * dc), cmap[j]))
    tables: dict[int, list] = {k: [] for k in ks}
    phi = dict.fromkeys(ks, 0)
    levels: list[Level] = []
    inner = [lo] * len(states)
    while states:
        depth += 1
        scale = dp ** ((depth - 1) * b) * dc ** ((depth - 1) * a)
        # inner level l -> (den, bound, members of level l at this depth), where
        # p^b c^a < eta_lo^(lb)  <=>  P^b C^a den < bound = num scale_p^b scale_c^a
        cuts = {lvl: (thr[lvl].denominator, thr[lvl].numerator * scale, {}) for lvl in set(inner)}
        ids: dict[tuple, int] = {}
        nxt: list[tuple] = []
        nxt_counts: list[int] = []
        nxt_inner: list[int] = []
        first, edge, child = [0], [], []
        for s, (v, chain, chi, p, c) in enumerate(states):
            n, lvl = counts[s], inner[s]
            den, bound, hits = cuts[lvl]
            for e, j, pe, ce, cj in out[v]:
                p2 = p * pe
                c2 = c * ce
                # a path cannot re-enter a component it left (condensation is
                # a DAG), so comparing against the last entry suffices
                ch2 = chain if cj < 0 or (chain and chain[-1] == cj) else chain + (cj,)
                st = (j, ch2, chi, p2, c2)
                lc = lvl
                if p2**b * c2**a * den < bound:
                    hits[st] = hits.get(st, 0) + n
                    lc += 1
                t = -1
                if lc <= hi:
                    t = ids.get(st)
                    if t is None:
                        t = ids[st] = len(nxt)
                        nxt.append(st)
                        nxt_counts.append(0)
                        nxt_inner.append(lc)
                    nxt_counts[t] += n
                edge.append(e)
                child.append(t)
            first.append(len(edge))
        for lvl, (_den, _bound, hits) in cuts.items():
            if hits and lvl in tables:
                tables[lvl].append((depth, hits))
                phi[lvl] += sum(hits.values())
        levels.append(Level(tuple(first), tuple(edge), tuple(child), tuple(inner)))
        if phi[hi] + sum(nxt_counts) > capacity:  # the top level's words bound every level's
            ahead = [0] * (hi - lo + 1)  # words still to expand, by lowest inner level
            for lvl, n in zip(nxt_inner, nxt_counts):
                ahead[lvl - lo] += n
            front = list(accumulate(ahead))  # ... inner at level lo + i or below
            for k in ks:  # the complete levels and the first with words left
                if phi[k] + front[k - lo] > capacity:
                    raise CapacityError(k, capacity)
                if front[k - lo]:
                    break
        states, counts, inner = nxt, nxt_counts, nxt_inner
    return tuple(levels), {k: (phi[k], tuple(tables[k])) for k in ks}


def _fold(sys: MarkovSystem, members, head) -> dict:
    """A member table's words summed, over all its depths, by (head(vertex,
    chain), chi index, P, Dp, C, Dc): p = P/Dp and c = C/Dc in lowest terms,
    so two rows share a key exactly when their weights are equal.  Keys are
    in the order their first row comes."""
    dp, dc = _scales(sys)
    folded: dict[tuple, int] = {}
    for depth, table in members:
        scale_p, scale_c = dp ** (depth - 1), dc ** (depth - 1)
        for (v, chain, chi, p, c), n in table.items():
            g, h = math.gcd(p, scale_p), math.gcd(c, scale_c)
            key = (head(v, chain), chi, p // g, scale_p // g, c // h, scale_c // h)
            folded[key] = folded.get(key, 0) + n
    return folded


def scan_levels(
    sys: MarkovSystem,
    r,
    ks: Iterable[int],
    *,
    cs: CriticalStructure | None = None,
    exact: bool = False,
    capacity: int = DEFAULT_CAPACITY,
) -> dict[int, ScanResult]:
    """The antichains of the levels `ks`, one `ScanResult` each, from one exact
    pass over merged word states, whose tree shape they share.

    Each is exact whatever `exact` says; `exact` only makes the antichain's
    sum_energy an exact Fraction for integer r.  Members are classified by
    the chains of `cs`, which must be built at order r (ValueError
    otherwise).  Raises CapacityError as `_descend` does, at the level a
    pass per level would name.
    """
    if cs is not None:
        cs.check_order(r)
    ks = sorted(set(ks))
    if not ks:
        return {}
    rq = as_fraction(r)
    cmap = [-1] * (sys.n + 1) if cs is None else cs.critical_of
    chis = tuple(sorted(set(sys.chi)))
    roots = [
        (v, (cmap[v],) if cmap[v] >= 0 else (), chis.index(sys.chi[v - 1]), 1, 1)
        for v in sys.vertices
    ]
    levels, tables = _descend(sys, rq, ks, roots, [1] * sys.n, 1, cmap, capacity)
    return {
        k: ScanResult(
            k=k, r=rq, phi=phi, depth_min=members[0][0], depth_max=members[-1][0],
            weights=_fold(sys, members, lambda _v, chain: chain), chis=chis,
            exact=exact, levels=levels, members=members,
        )
        for k, (phi, members) in tables.items()
    }


def scan(sys: MarkovSystem, r, k: int, **options) -> ScanResult:
    """The level-k antichain: `scan_levels` of the one level k, with its options."""
    return scan_levels(sys, r, [k], **options)[k]


def member_keys(sys: MarkovSystem, res: ScanResult) -> dict:
    """The members of a pass from the vertices, folded by (last vertex, p, c).

    Maps each key to the sum of chi over its member words, read off the
    pass's member table by `_fold` in integers: one Fraction pair per key
    of the fold.  Words with one key have the same members below them, up
    to the affine map of their own cylinder.
    """
    keys: dict = {}
    for (v, chi, pn, pd, cn, cd), n in _fold(sys, res.members, lambda v, _chain: v).items():
        key = (v, Fraction(pn, pd), Fraction(cn, cd))
        keys[key] = keys.get(key, 0) + n * res.chis[chi]
    return keys


def descend(
    sys: MarkovSystem, r, k: int, roots, depth: int, *, capacity: int = DEFAULT_CAPACITY
) -> tuple[Level, ...]:
    """The pass's level tables from `roots` down to the level-k threshold.

    roots are (last vertex, p, c) of words no longer than `depth`, each
    taken as one word, in order: the first level's state s is roots[s].
    Raises CapacityError once the members found plus the words still to
    expand exceed `capacity`, so the cap bounds the members laid out below
    the roots.
    """
    rq = as_fraction(r)
    dp, dc = _scales(sys)
    scale_p, scale_c = dp ** (depth - 1), dc ** (depth - 1)
    states = []
    for v, p, c in roots:
        p, c = p * scale_p, c * scale_c
        if p.denominator != 1 or c.denominator != 1:
            raise ValueError(f"root weights are not over the integer scales of depth {depth}")
        states.append((v, (), 0, p.numerator, c.numerator))
    cmap = [-1] * (sys.n + 1)
    return _descend(sys, rq, [k], states, [1] * len(states), depth, cmap, capacity)[0]


def _log(num: int, den: int) -> float:
    """log(num/den) from the integers: exact inputs of any size, no underflow."""
    return math.log(num) - math.log(den)


def _power_sum(table, e: float) -> float:
    """Sum of count * w^e over a weight table, as one correctly rounded sum."""
    return math.fsum(math.exp(lc + e * lw) for _chain, lw, lc in table)


@dataclass(frozen=True)
class Antichain(ScanResult):
    """One maximal antichain: its pass, with the pass's statistics.

    sum_energy is Sum p*c^r over members (exact Fraction in exact mode with
    integer r, float otherwise); sum_dim is Sum (p*c^r)^{s/(s+r)} at the
    dimension exponent s = s_dim.  class_sums splits sum_dim by the visited
    chain of critical components (all mass under () when no critical
    structure was supplied).  Each float is a sum over log_weights, one
    (chain, log w, log count) row per histogram key, sorted.  levels are the
    pass's tree shape; `member_words` reads the members off it.
    """

    s_dim: float
    sum_energy: Fraction | float
    sum_dim: float
    class_sums: dict[Chain, float]
    log_weights: tuple[tuple[Chain, float, float], ...] = field(repr=False)


def enumerate_antichain(
    sys: MarkovSystem,
    r,
    k: int,
    *,
    critical: CriticalStructure | None = None,
    exact: bool = False,
    capacity: int = DEFAULT_CAPACITY,
) -> Antichain:
    """Enumerate the level-k antichain and its statistics.

    When `critical` is given, members are classified by the chain of critical
    components they visit and the dimension exponent is taken from it;
    otherwise the global root is solved on the spot.
    """
    if critical is not None:
        s_dim = critical.s_r
    else:
        s_dim = spectral.solve_sr(sys, "full", r).root
    return _statistics(scan(sys, r, k, cs=critical, exact=exact, capacity=capacity), s_dim)


def _statistics(res: ScanResult, s_dim: float) -> Antichain:
    """The pass `res` with its statistics at the dimension exponent s_dim,
    read from its integer histogram `weights`: no Fraction is built, except
    sum_energy's in exact mode, and `hist` is not built."""
    rq = res.r
    rf = float(rq)
    # log w = log p + r log c, from the exact integers of each key
    table = tuple(sorted(
        (chain, _log(pn, pd) + rf * _log(cn, cd), math.log(cnt))
        for (chain, _chi, pn, pd, cn, cd), cnt in res.weights.items()
    ))
    expo = s_dim / (s_dim + rf)
    sum_dim = 0.0
    class_sums: dict[Chain, float] = {}
    for chain, lw, lc in table:
        term = math.exp(lc + expo * lw)
        sum_dim += term
        class_sums[chain] = class_sums.get(chain, 0.0) + term
    if res.exact and rq.denominator == 1:
        a = rq.numerator
        sum_energy: Fraction | float = sum(
            Fraction(cnt * pn * cn**a, pd * cd**a)
            for (_ch, _chi, pn, pd, cn, cd), cnt in res.weights.items()
        )
    else:
        sum_energy = _power_sum(table, 1.0)
    passed = {f.name: getattr(res, f.name) for f in fields(ScanResult)}  # not a cached `hist`
    return Antichain(
        **passed, s_dim=s_dim, sum_energy=sum_energy, sum_dim=sum_dim,
        class_sums=class_sums, log_weights=table,
    )


def member_words(sys: MarkovSystem, ac: ScanResult) -> list[Word]:
    """The antichain's member words, in lexicographic order.

    A depth-first walk of the pass's level tables, the symbolic twin of
    `geometry.level_grid`'s layout walk: a state inner at level `ac.k`
    continues the word into its slots one depth down, a member ends it.
    Slots follow `sys.edges`, so words come out sorted.
    Words can be thousands of levels deep, so the walk keeps its own stack.
    """
    heads = [j for _i, j in sys.edges]
    words: list[Word] = []
    # (depth, state or -1 for a member, word so far); the next word on top
    stack = [(0, v - 1, (v,)) for v in reversed(sys.vertices)]
    while stack:
        d, s, w = stack.pop()
        if s < 0 or ac.levels[d].inner[s] > ac.k:
            words.append(w)
            continue
        lvl = ac.levels[d]
        stack.extend(
            (d + 1, lvl.child[slot], w + (heads[lvl.edge[slot]],))
            for slot in reversed(range(lvl.first[s], lvl.first[s + 1]))
        )
    return words


def measure_partition_sum(ac: ScanResult) -> Fraction:
    """Exact Sum of chi_{sigma_1} p_sigma over members.

    Equals 1 for every maximal antichain: the cylinders partition the measure.
    """
    total = Fraction(0)
    for (_chain, chi, p, _c), cnt in ac.hist.items():
        total += cnt * chi * p
    return total


def implicit_exponent(ac: Antichain) -> float:
    """Solve Sum_{members} w^{t/(t+r)} = 1 for t.

    In e = t/(t+r), g(e) = log Sum count * w^e is convex and decreases
    strictly from log phi > 0 at e = 0 to log Sum w < 0 at e = 1, so the
    root is unique.  A bracket in t is doubled until g changes sign, then
    narrowed to `_EXPONENT_TOL` in rounds of two steps: Newton from the lower
    end, whose tangent lies below the convex g, so its root is again a lower
    end, and the secant through both ends, which lies above g on the
    bracket, so its root is an upper end.  Each step is kept at least half
    the tolerance inside the bracket, so a step that rounding puts at or past
    an end still closes the bracket; each point replaces the end of its
    sign of g, and a round that does not halve the bracket ends with a
    bisection.  Requires at least two members.
    """
    if ac.phi < 2:
        raise ValueError("implicit exponent needs an antichain with >= 2 words")
    rf = float(ac.r)
    rows = [(lw, lc) for _chain, lw, lc in ac.log_weights]
    log_w = [lw for lw, _lc in rows]

    def point(t: float) -> tuple[float, float, float, float]:
        """(t, e, g(e), g'(e)) at e = t/(t+r), one pass over the weight table;
        the slope only steers Newton, so it is not summed exactly."""
        e = t / (t + rf)
        terms = [math.exp(lc + e * lw) for lw, lc in rows]
        total = math.fsum(terms)
        return t, e, math.log(total), sum(map(operator.mul, terms, log_w)) / total

    lo, hi = point(0.0), point(1.0)
    while hi[2] > 0.0:
        if 2.0 * hi[0] > 1e9:
            raise ValueError("no positive root: sum of weights is >= 1 at all orders")
        lo, hi = hi, point(2.0 * hi[0])

    def narrow(t: float) -> None:
        """Evaluate at t, kept inside the bracket, unless it is closed."""
        nonlocal lo, hi
        if hi[0] - lo[0] > _EXPONENT_TOL:
            new = point(min(max(t, lo[0] + 0.5 * _EXPONENT_TOL), hi[0] - 0.5 * _EXPONENT_TOL))
            lo, hi = (new, hi) if new[2] > 0.0 else (lo, new)

    while hi[0] - lo[0] > _EXPONENT_TOL:
        width = hi[0] - lo[0]
        _, e_lo, g_lo, slope = lo
        narrow(_t_of(e_lo - g_lo / slope, rf))  # Newton
        (_, e_lo, g_lo, _), (_, e_hi, g_hi, _) = lo, hi
        narrow(_t_of(e_lo - g_lo * (e_hi - e_lo) / (g_hi - g_lo), rf))  # secant
        if hi[0] - lo[0] > 0.5 * width:
            narrow(0.5 * (lo[0] + hi[0]))
    return 0.5 * (lo[0] + hi[0])


def _t_of(e: float, rf: float) -> float:
    """t with t/(t+r) = e, for e < 1; +inf from e >= 1."""
    return rf * e / (1.0 - e) if e < 1.0 else math.inf


@dataclass(frozen=True)
class SeriesRow:
    """One level of the normalized ratio table."""

    k: int
    phi: int
    depth_min: int
    depth_max: int
    sum_energy: float
    sum_dim: float
    t_k: float
    corrected: float  # phi^{r/s_r} * sum_energy / (log phi)^{(t_r-1)(1+r/s_r)}
    uncorrected: float  # phi^{r/s_r} * sum_energy
    class_sums: dict[Chain, float]


def theorem_ratios(value: float, n: int, cs: CriticalStructure, label: str) -> tuple[float, float]:
    """(corrected, uncorrected): value * n^{r/s_r}, the plain power law, with and
    without the factor (log n)^{(t_r-1)(1+r/s_r)} predicted for t_r comparable
    critical components divided out, at the order r = cs.r.  Taken in logs,
    so n^{r/s_r} may be far beyond the float range; a value below the normal
    float range, where it is 0 or has lost its digits, raises ValueError
    naming `label`.
    """
    if value < float_info.min:
        raise ValueError(f"{label} is below the float range: {value!r}")
    power = cs.r / cs.s_r
    log_expo = (cs.t_r - 1) * (1.0 + power)
    log_u = power * math.log(n) + math.log(value)
    # log_expo is 0.0 when t_r = 1, and then corrected is u exactly
    return math.exp(log_u - log_expo * math.log(math.log(n))), math.exp(log_u)


def series_row(res: ScanResult, cs: CriticalStructure) -> SeriesRow:
    """The `theorem_ratio_series` row of the pass `res`: its ratio columns are
    `theorem_ratios` of sum_energy at phi, and raise below the float range."""
    ac = _statistics(res, cs.s_r)
    energy = float(ac.sum_energy)
    corrected, uncorrected = theorem_ratios(energy, ac.phi, cs, f"sum_energy at k={res.k}")
    return SeriesRow(
        k=res.k, phi=ac.phi, depth_min=ac.depth_min, depth_max=ac.depth_max,
        sum_energy=energy, sum_dim=ac.sum_dim,
        t_k=implicit_exponent(ac),
        corrected=corrected, uncorrected=uncorrected,
        class_sums=dict(ac.class_sums),
    )


def theorem_ratio_series(
    sys: MarkovSystem,
    r,
    k_range: Iterable[int],
    *,
    cs: CriticalStructure | None = None,
    exact: bool = False,
    capacity: int = DEFAULT_CAPACITY,
) -> list[SeriesRow]:
    """Normalized antichain sums over a range of levels, all from one pass:
    one `series_row` per level, in the order of `k_range`."""
    if cs is None:
        cs = spectral.critical_analysis(sys, r)
    ks = list(k_range)
    passes = scan_levels(sys, r, ks, cs=cs, exact=exact, capacity=capacity)
    return [series_row(passes[k], cs) for k in ks]
