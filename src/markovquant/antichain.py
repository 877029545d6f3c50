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
constructions, Mauldin-Williams 1988).  Membership is exact: p^b * c^a is
compared against p_min^{kb} * c_min^{ka} for r = a/b in lowest terms, in
integers over one common scale per depth.  Members fold into a
histogram keyed by (chain, chi, p, c), so counts and the sums built from
them do not depend on traversal order.  The pass also records, per depth,
which state every child of a state goes to, and the states and their
multiplicities; member words are read off these tables, and the geometry
module lays out the members' cylinders under each state once from them.
`member_keys` folds the members by (last vertex, p, c), and `descend` runs
the same pass from such keys, one word each, to a deeper threshold.  Each
histogram key is weighed once, in logs taken from its exact integers, so no
weight underflows at any depth; every float statistic is a sum of
exp(log count + e * log w) over those keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from sys import float_info
from typing import Iterable, NamedTuple

from . import spectral
from .graphs import CriticalStructure
from .model import MarkovSystem, Word, as_fraction, edge_extremes

DEFAULT_CAPACITY = 10**8

Chain = tuple[int, ...]


class CapacityError(RuntimeError):
    """Raised when an enumeration would exceed the configured word cap."""


class Level(NamedTuple):
    """The states of one depth: its non-member words, merged by state.

    At the first depth the states are the roots: in `scan`, state v - 1 holds
    vertex v.  The children of state s occupy slots first[s] .. first[s + 1] - 1,
    one per outgoing edge of its vertex in `sys.edges` order; the words of a
    state share its slots.
    """

    first: tuple[int, ...]  # state -> its first slot; one trailing entry ends the last state
    edge: tuple[int, ...]  # slot -> index of the edge into `sys.edges`
    child: tuple[int, ...]  # slot -> state at the next depth, or -1 when the child is a member
    # state -> (last vertex, chain, index of its root's chi in sorted(set(sys.chi)), P, C),
    # P and C over this depth's scales
    states: list
    counts: list  # state -> number of words merged into it


@dataclass(frozen=True)
class ScanResult:
    """Output of one antichain pass."""

    k: int
    r: Fraction
    phi: int
    depth_min: int
    depth_max: int
    hist: dict = field(repr=False)  # (chain, chi, p, c) -> number of member words
    exact: bool
    levels: tuple[Level, ...] = field(repr=False)


def _critical_map(sys: MarkovSystem, cs: CriticalStructure | None) -> list[int]:
    """vertex (1-based index) -> critical component index, -1 outside."""
    cmap = [-1] * (sys.n + 1)
    if cs is not None:
        vmap = cs.condensation.vertex_map()
        for v in sys.vertices:
            idx = vmap[v]
            if cs.critical[idx]:
                cmap[v] = idx
    return cmap


def _threshold_power(sys: MarkovSystem, rq: Fraction, k: int) -> Fraction:
    """eta_lo^k raised to the b-th power for r = a/b: p_min^(kb) * c_min^(ka)."""
    p_lo, c_lo, _, _ = edge_extremes(sys)
    return p_lo ** (k * rq.denominator) * c_lo ** (k * rq.numerator)


def _scales(sys: MarkovSystem) -> tuple[int, int]:
    """(dp, dc): the lcm of the edge denominators of p and of c.

    A word of length d has p = P / dp^(d-1) and c = C / dc^(d-1) for integers
    P and C, so at one depth equal weights are equal integers.
    """
    dp = math.lcm(*(sys.edge_p(i, j).denominator for i, j in sys.edges))
    dc = math.lcm(*(sys.edge_c(i, j).denominator for i, j in sys.edges))
    return dp, dc


def _descend(
    sys: MarkovSystem, rq: Fraction, k: int, states: list, counts: list, depth: int,
    cmap: list[int], capacity: int,
) -> tuple[tuple[Level, ...], int, list]:
    """The pass from `states`, the words of length `depth`, to the level-k antichain.

    A state is (last vertex, chain, chi index, P, C), P and C over the scales
    of `depth`; counts are its word multiplicities.  Returns the per-depth
    Levels, phi and, per depth with members, (depth, members keyed by
    (chain, chi index, P, C)).  Raises CapacityError as soon as the members
    found plus the words still to expand exceed `capacity`: each word left to
    expand has at least two member descendants, so that sum never exceeds the
    final phi.
    """
    if k < 1:
        raise ValueError(f"level k must be >= 1, got {k}")
    if rq <= 0:
        raise ValueError(f"order r must be positive, got {rq}")
    a, b = rq.numerator, rq.denominator
    thr_pow = _threshold_power(sys, rq, k)
    dp, dc = _scales(sys)
    out: list[list[tuple]] = [[] for _ in range(sys.n + 1)]
    for e, (i, j) in enumerate(sys.edges):
        out[i].append((e, j, int(sys.edge_p(i, j) * dp), int(sys.edge_c(i, j) * dc), cmap[j]))
    found: list[tuple[int, dict]] = []
    levels: list[Level] = []
    phi = 0
    while states:
        depth += 1
        scale_p, scale_c = dp ** (depth - 1), dc ** (depth - 1)
        # p^b c^a < thr_pow  <=>  P^b C^a den < num scale_p^b scale_c^a
        den, bound = thr_pow.denominator, thr_pow.numerator * scale_p**b * scale_c**a
        hits: dict[tuple, int] = {}
        ids: dict[tuple, int] = {}
        nxt: list[tuple] = []
        nxt_counts: list[int] = []
        first, edge, child = [0], [], []
        for s, (v, chain, chi, p, c) in enumerate(states):
            n = counts[s]
            for e, j, pe, ce, cj in out[v]:
                p2 = p * pe
                c2 = c * ce
                # a path cannot re-enter a component it left (condensation is
                # a DAG), so comparing against the last entry suffices
                ch2 = chain if cj < 0 or (chain and chain[-1] == cj) else chain + (cj,)
                if p2**b * c2**a * den < bound:
                    key = (ch2, chi, p2, c2)
                    hits[key] = hits.get(key, 0) + n
                    t = -1
                else:
                    st = (j, ch2, chi, p2, c2)
                    t = ids.get(st)
                    if t is None:
                        t = ids[st] = len(nxt)
                        nxt.append(st)
                        nxt_counts.append(0)
                    nxt_counts[t] += n
                edge.append(e)
                child.append(t)
            first.append(len(edge))
        if hits:
            found.append((depth, hits))
            phi += sum(hits.values())
        levels.append(Level(tuple(first), tuple(edge), tuple(child), states, counts))
        if phi + sum(nxt_counts) > capacity:
            raise CapacityError(f"antichain at k={k} exceeds capacity cap {capacity} words")
        states, counts = nxt, nxt_counts
    return tuple(levels), phi, found


def scan(
    sys: MarkovSystem,
    r,
    k: int,
    *,
    cs: CriticalStructure | None = None,
    exact: bool = False,
    capacity: int = DEFAULT_CAPACITY,
) -> ScanResult:
    """Count the level-k antichain in one exact pass over merged word states.

    Membership, phi, the depth range, the histogram and the per-depth state
    tables are exact whatever `exact` says; `exact` only makes the
    antichain's sum_energy an exact Fraction for integer r.  Raises
    CapacityError as soon as the members found plus the words still to
    expand exceed `capacity`.
    """
    rq = as_fraction(r)
    cmap = _critical_map(sys, cs)
    chis = sorted(set(sys.chi))
    roots = [
        (v, (cmap[v],) if cmap[v] >= 0 else (), chis.index(sys.chi[v - 1]), 1, 1)
        for v in sys.vertices
    ]
    levels, phi, found = _descend(sys, rq, k, roots, [1] * sys.n, 1, cmap, capacity)
    dp, dc = _scales(sys)
    hist: dict = {}
    for depth, hits in found:
        scale_p, scale_c = dp ** (depth - 1), dc ** (depth - 1)
        for (ch, chi, p, c), n in hits.items():
            key = (ch, chis[chi], Fraction(p, scale_p), Fraction(c, scale_c))
            hist[key] = hist.get(key, 0) + n
    return ScanResult(
        k=k, r=rq, phi=phi, depth_min=found[0][0], depth_max=found[-1][0], hist=hist,
        exact=exact, levels=levels,
    )


def member_keys(sys: MarkovSystem, levels: tuple[Level, ...]) -> dict:
    """The members of a pass from the vertices, folded by (last vertex, p, c).

    Maps each key to the sum of chi over its member words.  Reads the member
    slots of each depth's states, not the words: a member slot of a state of
    multiplicity n stands for n words with the chi of the state's root.
    Words with one key have the same members below them, up to the affine map
    of their own cylinder.
    """
    dp, dc = _scales(sys)
    chis = sorted(set(sys.chi))
    ends = [
        (j, int(sys.edge_p(i, j) * dp), int(sys.edge_c(i, j) * dc)) for i, j in sys.edges
    ]
    keys: dict = {}
    for depth, lvl in enumerate(levels, start=2):  # members of lvl have this length
        folded: dict[tuple, int] = {}
        for s, (_v, _chain, chi, p, c) in enumerate(lvl.states):
            n = lvl.counts[s]
            for slot in range(lvl.first[s], lvl.first[s + 1]):
                if lvl.child[slot] < 0:
                    j, pe, ce = ends[lvl.edge[slot]]
                    key = (j, chi, p * pe, c * ce)
                    folded[key] = folded.get(key, 0) + n
        scale_p, scale_c = dp ** (depth - 1), dc ** (depth - 1)
        for (j, chi, p, c), n in folded.items():
            key = (j, Fraction(p, scale_p), Fraction(c, scale_c))
            keys[key] = keys.get(key, 0) + n * chis[chi]
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
    return _descend(sys, rq, k, states, [1] * len(states), depth, cmap, capacity)[0]


def _log(q: Fraction) -> float:
    """log q from its integers: exact inputs of any size, no underflow."""
    return math.log(q.numerator) - math.log(q.denominator)


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
    pass's per-depth state tables; `member_words` reads the members off them.
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
    res = scan(sys, r, k, cs=critical, exact=exact, capacity=capacity)
    rq = res.r
    rf = float(rq)
    # log w = log p + r log c, from the exact integers of each key
    table = tuple(sorted(
        (chain, _log(p) + rf * _log(c), math.log(cnt))
        for (chain, _chi, p, c), cnt in res.hist.items()
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
            cnt * p * c**a for (_ch, _chi, p, c), cnt in res.hist.items()
        )
    else:
        sum_energy = _power_sum(table, 1.0)
    return Antichain(
        **vars(res), s_dim=s_dim, sum_energy=sum_energy, sum_dim=sum_dim,
        class_sums=class_sums, log_weights=table,
    )


def member_words(sys: MarkovSystem, ac: Antichain) -> list[Word]:
    """The antichain's member words, in lexicographic order.

    A depth-first walk of the pass's level tables, the symbolic twin of
    `geometry.level_grid`'s layout walk: a slot to a state continues the word
    into that state's slots one depth down, a member slot ends it.  Slots
    follow `sys.edges`, so words come out sorted.  Words can be thousands of
    levels deep, so the walk keeps its own stack.
    """
    heads = [j for _i, j in sys.edges]
    words: list[Word] = []
    # (depth, state or -1 for a member, word so far); the next word on top
    stack = [(0, v - 1, (v,)) for v in reversed(sys.vertices)]
    while stack:
        d, s, w = stack.pop()
        if s < 0:
            words.append(w)
            continue
        lvl = ac.levels[d]
        stack.extend(
            (d + 1, lvl.child[slot], w + (heads[lvl.edge[slot]],))
            for slot in reversed(range(lvl.first[s], lvl.first[s + 1]))
        )
    return words


def measure_partition_sum(ac: Antichain) -> Fraction:
    """Exact Sum of chi_{sigma_1} p_sigma over members.

    Equals 1 for every maximal antichain: the cylinders partition the measure.
    """
    total = Fraction(0)
    for (_chain, chi, p, _c), cnt in ac.hist.items():
        total += cnt * chi * p
    return total


def implicit_exponent(ac: Antichain, tol: float = 1e-10) -> float:
    """Solve Sum_{members} w^{t/(t+r)} = 1 for t by bisection.

    The left side decreases strictly in t from phi (at t -> 0) toward
    Sum w < 1, so the root is unique.  Requires at least two members.
    """
    if ac.phi < 2:
        raise ValueError("implicit exponent needs an antichain with >= 2 words")
    rf = float(ac.r)

    def f(t: float) -> float:
        return _power_sum(ac.log_weights, t / (t + rf)) - 1.0

    lo = 0.0
    hi = 1.0
    while f(hi) > 0.0:
        lo = hi
        hi *= 2.0
        if hi > 1e9:
            raise ValueError("no positive root: sum of weights is >= 1 at all orders")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


def theorem_ratios(
    value: float, n: int, r, cs: CriticalStructure, label: str
) -> tuple[float, float]:
    """(corrected, uncorrected): value * n^{r/s_r}, the plain power law, with and
    without the factor (log n)^{(t_r-1)(1+r/s_r)} predicted for t_r comparable
    critical components divided out.  Taken in logs, so n^{r/s_r} may be far
    beyond the float range; a value below the normal float range, where it is
    0 or has lost its digits, raises ValueError naming `label`.
    """
    if value < float_info.min:
        raise ValueError(f"{label} is below the float range: {value!r}")
    power = float(as_fraction(r)) / cs.s_r
    log_expo = (cs.t_r - 1) * (1.0 + power)
    log_u = power * math.log(n) + math.log(value)
    # log_expo is 0.0 when t_r = 1, and then corrected is u exactly
    return math.exp(log_u - log_expo * math.log(math.log(n))), math.exp(log_u)


def theorem_ratio_series(
    sys: MarkovSystem,
    r,
    k_range: Iterable[int],
    *,
    cs: CriticalStructure | None = None,
    exact: bool = False,
    capacity: int = DEFAULT_CAPACITY,
) -> list[SeriesRow]:
    """Normalized antichain sums over a range of levels.

    The ratio columns are `theorem_ratios` of sum_energy at phi: a
    sum_energy below the normal float range raises ValueError.
    """
    if cs is None:
        cs = spectral.critical_analysis(sys, r)
    rows: list[SeriesRow] = []
    for k in k_range:
        ac = enumerate_antichain(sys, r, k, critical=cs, exact=exact, capacity=capacity)
        energy = float(ac.sum_energy)
        corrected, uncorrected = theorem_ratios(energy, ac.phi, r, cs, f"sum_energy at k={k}")
        rows.append(
            SeriesRow(
                k=k, phi=ac.phi, depth_min=ac.depth_min, depth_max=ac.depth_max,
                sum_energy=energy, sum_dim=ac.sum_dim,
                t_k=implicit_exponent(ac),
                corrected=corrected, uncorrected=uncorrected,
                class_sums=dict(ac.class_sums),
            )
        )
    return rows
