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
which state every child word goes to; the geometry module replays these
tables to place the members' cylinders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import spectral
from .graphs import CriticalStructure
from .model import MarkovSystem, Word, as_fraction, edge_extremes

DEFAULT_CAPACITY = 10**8

Chain = tuple[int, ...]


class CapacityError(RuntimeError):
    """Raised when an enumeration would exceed the configured word cap."""


class Level(NamedTuple):
    """The non-member words of one length, merged into states.

    At the first depth the states are the roots, state v - 1 holding vertex v.
    The children of state s occupy slots first[s] .. first[s + 1] - 1, one per
    outgoing edge of its vertex in `sys.edges` order.
    """

    words: int  # words at this depth, summed over its states
    first: tuple[int, ...]  # state -> its first slot; one trailing entry ends the last state
    edge: tuple[int, ...]  # slot -> index of the edge into `sys.edges`
    child: tuple[int, ...]  # slot -> state at the next depth, or -1 when the child is a member


@dataclass(frozen=True)
class ScanResult:
    """Output of one antichain pass."""

    k: int
    r: Fraction
    phi: int
    depth_min: int
    depth_max: int
    hist: dict  # (chain, chi, p, c) -> number of member words
    exact: bool
    words: tuple[Word, ...] | None
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


def _weight_float(p: Fraction, c: Fraction, rq: Fraction) -> float:
    if rq.denominator == 1:
        return float(p * c**rq.numerator)
    return float(p) * float(c) ** float(rq)


def scan(
    sys: MarkovSystem,
    r,
    k: int,
    *,
    cs: CriticalStructure | None = None,
    exact: bool = False,
    store_words: bool = False,
    capacity: int = DEFAULT_CAPACITY,
) -> ScanResult:
    """Count the level-k antichain in one exact pass over merged word states.

    Membership, phi, the depth range and the histogram are exact whatever
    `exact` says; `exact` (implied by store_words) only makes the antichain's
    sum_energy an exact Fraction for integer r.  store_words also keeps every
    member word, for small levels.  Raises CapacityError as soon as the
    members found plus the words still to expand exceed `capacity`: each word
    left to expand has at least two member descendants, so that sum never
    exceeds the final phi.
    """
    if k < 1:
        raise ValueError(f"level k must be >= 1, got {k}")
    rq = as_fraction(r)
    if rq <= 0:
        raise ValueError(f"order r must be positive, got {r}")
    cmap = _critical_map(sys, cs)
    p_lo, c_lo, _, _ = edge_extremes(sys)
    a, b = rq.numerator, rq.denominator
    thr_pow = p_lo ** (k * b) * c_lo ** (k * a)  # eta_lo^k raised to the b-th power
    # Weights are integers over one scale per depth: a word of length d has
    # p = P / dp^(d-1) and c = C / dc^(d-1), dp and dc the lcm of the edge
    # denominators, so at one depth equal weights are equal integers.
    dp = math.lcm(*(sys.edge_p(i, j).denominator for i, j in sys.edges))
    dc = math.lcm(*(sys.edge_c(i, j).denominator for i, j in sys.edges))
    out: list[list[tuple]] = [[] for _ in range(sys.n + 1)]
    for e, (i, j) in enumerate(sys.edges):
        out[i].append((e, j, int(sys.edge_p(i, j) * dp), int(sys.edge_c(i, j) * dc), cmap[j]))
    chis = sorted(set(sys.chi))

    hist: dict = {}
    members: list[Word] = []
    levels: list[Level] = []
    phi = l1 = l2 = 0
    # state: (last vertex, chain, index of the root's chi in chis, P, C)
    states = [
        (v, (cmap[v],) if cmap[v] >= 0 else (), chis.index(sys.chi[v - 1]), 1, 1)
        for v in sys.vertices
    ]
    counts = [1] * sys.n
    held = [[(v,)] for v in sys.vertices] if store_words else None
    depth = 1
    while states:
        depth += 1
        scale_p, scale_c = dp ** (depth - 1), dc ** (depth - 1)
        # p^b c^a < thr_pow  <=>  P^b C^a den < num scale_p^b scale_c^a
        den, bound = thr_pow.denominator, thr_pow.numerator * scale_p**b * scale_c**a
        hits: dict[tuple, int] = {}
        ids: dict[tuple, int] = {}
        nxt: list[tuple] = []
        nxt_counts: list[int] = []
        nxt_held: list[list[Word]] = []
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
                    if held is not None:
                        members.extend(w + (j,) for w in held[s])
                else:
                    st = (j, ch2, chi, p2, c2)
                    t = ids.get(st)
                    if t is None:
                        t = ids[st] = len(nxt)
                        nxt.append(st)
                        nxt_counts.append(0)
                        nxt_held.append([])
                    nxt_counts[t] += n
                    if held is not None:
                        nxt_held[t].extend(w + (j,) for w in held[s])
                edge.append(e)
                child.append(t)
            first.append(len(edge))
        for (ch, chi, p, c), n in hits.items():
            key = (ch, chis[chi], Fraction(p, scale_p), Fraction(c, scale_c))
            hist[key] = hist.get(key, 0) + n
            phi += n
        if hits:
            l1 = l1 or depth
            l2 = depth
        levels.append(Level(sum(counts), tuple(first), tuple(edge), tuple(child)))
        if phi + sum(nxt_counts) > capacity:
            raise CapacityError(f"antichain at k={k} exceeds capacity cap {capacity} words")
        states, counts = nxt, nxt_counts
        if held is not None:
            held = nxt_held
    return ScanResult(
        k=k, r=rq, phi=phi, depth_min=l1, depth_max=l2, hist=hist,
        exact=exact or store_words, words=tuple(members) if store_words else None,
        levels=tuple(levels),
    )


def _weight_items(res: ScanResult) -> list[tuple[Chain, float, int]]:
    """(chain, float weight, count) triples in a canonical order."""
    out = [
        (chain, _weight_float(p, c, res.r), cnt) for (chain, _chi, p, c), cnt in res.hist.items()
    ]
    out.sort(key=lambda t: (t[0], t[1]))
    return out


@dataclass(frozen=True)
class Antichain:
    """One maximal antichain with its statistics.

    sum_energy is Sum p*c^r over members (exact Fraction in exact mode with
    integer r, float otherwise); sum_dim is Sum (p*c^r)^{s/(s+r)} at the
    dimension exponent s = s_dim.  class_sums splits sum_dim by the visited
    chain of critical components (all mass under () when no critical
    structure was supplied).
    """

    k: int
    r: Fraction
    s_dim: float
    phi: int
    depth_min: int
    depth_max: int
    sum_energy: Fraction | float
    sum_dim: float
    class_sums: dict[Chain, float]
    classified: bool
    exact: bool
    hist: dict = field(repr=False)
    words: tuple[Word, ...] | None = field(default=None, repr=False)

    def weight_counts(self) -> list[tuple[float, int]]:
        """(float weight, count) pairs, ascending by weight."""
        agg: dict[float, int] = {}
        for _chain, w, cnt in _weight_items(self):
            agg[w] = agg.get(w, 0) + cnt
        return sorted(agg.items())


def _build_antichain(res: ScanResult, s_dim: float, classified: bool) -> Antichain:
    rq = res.r
    expo = s_dim / (s_dim + float(rq))
    items = _weight_items(res)
    sum_dim = 0.0
    class_sums: dict[Chain, float] = {}
    for chain, w, cnt in items:
        term = cnt * w**expo
        sum_dim += term
        class_sums[chain] = class_sums.get(chain, 0.0) + term
    if res.exact and rq.denominator == 1:
        a = rq.numerator
        sum_energy: Fraction | float = sum(
            cnt * p * c**a for (_ch, _chi, p, c), cnt in res.hist.items()
        )
    else:
        sum_energy = math.fsum(cnt * w for _ch, w, cnt in items)
    return Antichain(
        k=res.k, r=rq, s_dim=s_dim, phi=res.phi,
        depth_min=res.depth_min, depth_max=res.depth_max,
        sum_energy=sum_energy, sum_dim=sum_dim,
        class_sums=class_sums, classified=classified,
        exact=res.exact, hist=res.hist, words=res.words,
    )


def enumerate_antichain(
    sys: MarkovSystem,
    r,
    k: int,
    *,
    critical: CriticalStructure | None = None,
    exact: bool = False,
    store_words: bool = False,
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
    res = scan(
        sys, r, k, cs=critical, exact=exact, store_words=store_words, capacity=capacity
    )
    return _build_antichain(res, s_dim, classified=critical is not None)


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
    weights = ac.weight_counts()

    def f(t: float) -> float:
        e = t / (t + rf)
        return math.fsum(cnt * w**e for w, cnt in weights) - 1.0

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
class ChainSum:
    """Dimension-exponent mass of one chain class inside an antichain."""

    chain: Chain
    value: float
    k: int
    r: float


@dataclass(frozen=True)
class ChainDecomposition:
    """Per-chain split of sum_dim, plus the transient (l = 0) residual."""

    chain_sums: tuple[ChainSum, ...]  # classes with l >= 1, sorted by chain
    residual_l0: float
    total: float

    def value(self, chain: Chain) -> float:
        for cs_ in self.chain_sums:
            if cs_.chain == chain:
                return cs_.value
        return 0.0


def chain_decomposition(
    sys: MarkovSystem,
    r,
    ac: Antichain,
    cs: CriticalStructure,
    capacity: int = DEFAULT_CAPACITY,
) -> ChainDecomposition:
    """Split the antichain's dimension sum by visited critical-component chain.

    Re-scans with classification if the antichain was enumerated without a
    critical structure.
    """
    if not ac.classified:
        res = scan(sys, r, ac.k, cs=cs, exact=ac.exact, capacity=capacity)
        ac = _build_antichain(res, cs.s_r, classified=True)
    sums = [
        ChainSum(chain=ch, value=val, k=ac.k, r=float(ac.r))
        for ch, val in sorted(ac.class_sums.items())
        if ch
    ]
    return ChainDecomposition(
        chain_sums=tuple(sums),
        residual_l0=ac.class_sums.get((), 0.0),
        total=ac.sum_dim,
    )


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

    `uncorrected` tracks the plain power law; `corrected` divides out the
    logarithmic factor predicted for t_r comparable critical components.
    With t_r = 1 the two columns coincide.
    """
    if cs is None:
        cs = spectral.critical_analysis(sys, r)
    rf = float(as_fraction(r))
    power = rf / cs.s_r
    log_expo = (cs.t_r - 1) * (1.0 + power)
    rows: list[SeriesRow] = []
    for k in k_range:
        ac = enumerate_antichain(sys, r, k, critical=cs, exact=exact, capacity=capacity)
        u = ac.phi**power * float(ac.sum_energy)
        corrected = u / math.log(ac.phi) ** log_expo
        rows.append(
            SeriesRow(
                k=k, phi=ac.phi, depth_min=ac.depth_min, depth_max=ac.depth_max,
                sum_energy=float(ac.sum_energy), sum_dim=ac.sum_dim,
                t_k=implicit_exponent(ac),
                corrected=corrected, uncorrected=u,
                class_sums=dict(ac.class_sums),
            )
        )
    return rows
