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
keys, one word each, to a deeper threshold.  `series_row` alone turns a
level into statistics: it weighs each histogram key once, in logs taken
from its exact integers, so no weight underflows at any depth; every float
statistic is a sum of exp(log count + e * log w) over that one table, which
`implicit_exponent` reads too, solving for its exponent by Newton steps from
below.  The histogram in Fractions is built only when read.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from sys import float_info
from typing import Iterable, NamedTuple

from . import spectral
from .graphs import CriticalStructure
from .model import MarkovSystem, Word, as_fraction, edge_extremes

DEFAULT_CAPACITY = 10**8
_EXPONENT_TOL = 1e-10  # `implicit_exponent` certifies a bracket in t of at most this width

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

    Each is exact whatever `exact` says; `exact` only makes `series_row`'s
    sum_energy the correctly rounded exact sum for integer r.  Members are
    classified by the chains of `cs`, which must be built at order r
    (ValueError otherwise).  Raises CapacityError as `_descend` does, at the
    level a pass per level would name.
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


def _log_weights(res: ScanResult) -> list[tuple[Chain, float, float]]:
    """The pass's weight table: one (chain, log w, log count) row per key of
    its integer histogram `weights`, sorted, with log w = log p + r log c
    taken from the key's exact integers: no weight underflows."""
    rf = float(res.r)
    return sorted(
        (chain, (math.log(pn) - math.log(pd)) + rf * (math.log(cn) - math.log(cd)), math.log(cnt))
        for (chain, _chi, pn, pd, cn, cd), cnt in res.weights.items()
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


def implicit_exponent(table, r) -> float:
    """Solve Sum_{members} w^{t/(t+r)} = 1 for t over a weight table of
    (chain, log w, log count) rows.

    In e = t/(t+r), g(e) = log Sum count * w^e is convex and decreases
    strictly from log phi > 0 at e = 0 to log Sum w < 0 at e = 1, so the
    root is unique.  Newton runs from t = 0: the tangent at a point below the
    root lies below the convex g, so its root is again below, and each
    iterate is a lower end of the bracket.  A step shorter than half
    `_EXPONENT_TOL` is lengthened to that half, whose evaluation certifies an
    upper end; an iterate at or past the root (g linear, or rounding) is an
    upper end, and half the tolerance below it certifies a lower one.  The
    midpoint of the first bracket no wider than the tolerance is returned.
    Requires at least two members.
    """
    rf = float(r)
    rows = [(lw, lc) for _chain, lw, lc in table]
    log_w = [lw for lw, _lc in rows]
    half = 0.5 * _EXPONENT_TOL
    lo, hi, t = 0.0, math.inf, 0.0
    while True:
        e = t / (t + rf)
        terms = [math.exp(lc + e * lw) for lw, lc in rows]
        total = math.fsum(terms)
        g = math.log(total)
        if t == 0.0 and g <= 0.0:  # log phi: one word, or none
            raise ValueError("implicit exponent needs an antichain with >= 2 words")
        lo, hi = (t, hi) if g > 0.0 else (lo, t)
        if hi - lo <= _EXPONENT_TOL:
            return 0.5 * (lo + hi)
        if g <= 0.0:  # at or past the root: certify a lower end below it
            t -= half
            continue
        # the slope only steers Newton, so it is not summed exactly
        slope = sum(map(operator.mul, terms, log_w)) / total
        if slope >= 0.0 or (target := e - g / slope) >= 1.0:
            raise ValueError("no positive root: sum of weights is >= 1 at all orders")
        # a step shorter than half the tolerance is lengthened to certify an upper end
        t = max(rf * target / (1.0 - target), t + half)


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
    """The `theorem_ratio_series` row of the pass `res`, read from its
    integer histogram `weights` through one `_log_weights` table; `hist` is
    not built.

    sum_energy is Sum p*c^r over members: the exact sum correctly rounded
    when the pass is exact at integer r, else summed over the table.
    sum_dim is Sum (p*c^r)^{s/(s+r)} at s = s_r, and class_sums splits it
    by the visited chain of critical components.  t_k is
    `implicit_exponent` of the table, by Newton from t = 0.  The ratio
    columns are `theorem_ratios` of sum_energy at phi, and raise below the
    float range.
    `cs` must be built at the pass's order (ValueError otherwise).
    """
    cs.check_order(res.r)
    table = _log_weights(res)
    rq = res.r
    expo = cs.s_r / (cs.s_r + float(rq))
    sum_dim = 0.0
    class_sums: dict[Chain, float] = {}
    for chain, lw, lc in table:
        term = math.exp(lc + expo * lw)
        sum_dim += term
        class_sums[chain] = class_sums.get(chain, 0.0) + term
    if res.exact and rq.denominator == 1:
        a = rq.numerator
        energy = float(sum(
            Fraction(cnt * pn * cn**a, pd * cd**a)
            for (_ch, _chi, pn, pd, cn, cd), cnt in res.weights.items()
        ))
    else:
        energy = math.fsum(math.exp(lc + lw) for _chain, lw, lc in table)
    corrected, uncorrected = theorem_ratios(energy, res.phi, cs, f"sum_energy at k={res.k}")
    return SeriesRow(
        k=res.k, phi=res.phi, depth_min=res.depth_min, depth_max=res.depth_max,
        sum_energy=energy, sum_dim=sum_dim, t_k=implicit_exponent(table, rq),
        corrected=corrected, uncorrected=uncorrected, class_sums=class_sums,
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
