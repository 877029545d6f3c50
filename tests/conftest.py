"""Shared fixtures and independent oracles.

The three reference models:
  A ("cantor"): N=2, complete graph, all p=1/2, c=1/3.  One critical SCC,
    closed-form root ln2/ln3 for every order.
  B ("chain"): N=7.  Two critical SCCs {1,2} and {3,4} joined through the
    transient vertex 5; the subcritical sink {6,7} has ratios 1/9.
  C ("incomparable"): N=5.  Two critical SCCs {1,2}, {3,4}, both reachable
    from root 5 but not from each other.

Oracle values below were recomputed independently (200-step bisection at
50 decimal digits) before anything in src/ existed; tests freeze them.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from markovquant import MarkovSystem, level_grid, load_model, path_weight
from markovquant.antichain import scan

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

# frozen oracle values (independent high-precision bisection / closed forms)
S_R_A = 0.6309297535714574  # ln2/ln3, any order
S1_H1_B = 0.36718377023594174  # root of golden_ratio * (1/6)^{s/(s+1)} = 1
S1_K_B = 0.31546487678572872  # x/(1-x), x = ln2/ln18
DECAY_LIMIT_B = 0.9202422538857508  # 2*(1/18)^{s/(s+1)} at s = S1_H1_B
T11_A = 1.3825362618551106  # y/(1-y), y = ln8/ln36


def grid_at(rz, r, k, **options):
    """The level-k grid of `rz` at order r, laid out from a one-level pass."""
    return level_grid(rz, scan(rz.system, r, k, **options))


@pytest.fixture(scope="session")
def sys_a() -> MarkovSystem:
    return load_model(FIXTURE_DIR / "fixture_a.json")


@pytest.fixture(scope="session")
def sys_b() -> MarkovSystem:
    return load_model(FIXTURE_DIR / "fixture_b.json")


@pytest.fixture(scope="session")
def sys_c() -> MarkovSystem:
    return load_model(FIXTURE_DIR / "fixture_c.json")


def all_words(sys: MarkovSystem, length: int) -> list[tuple[int, ...]]:
    """Every admissible word of exactly this length, by breadth-first growth."""
    words = [(i,) for i in sys.vertices]
    for _ in range(length - 1):
        words = [w + (j,) for w in words for j in sys.successors(w[-1])]
    return words


def oracle_antichain(sys: MarkovSystem, r: int, k: int) -> list[tuple[int, ...]]:
    """Brute-force maximal antichain straight from the defining inequalities.

    Grows words breadth-first and tests membership per word with fresh exact
    products (no incremental state shared with the production scanner).  The
    threshold is eta_lo^k with eta_lo = p_min * c_min^r, the minima taken
    separately over edges as in `model.edge_extremes`.  Integer r only.
    """
    p_lo = min(sys.edge_p(i, j) for i, j in sys.edges)
    c_lo = min(sys.edge_c(i, j) for i, j in sys.edges)
    eta_lo = p_lo * c_lo**r
    thr = eta_lo**k
    members: list[tuple[int, ...]] = []
    frontier = [(i,) for i in sys.vertices]
    while frontier:
        nxt = []
        for w in frontier:
            pw = path_weight(sys, w)
            weight = pw.p_weight * pw.c_weight**r
            parent = path_weight(sys, w[:-1])
            par_weight = parent.p_weight * parent.c_weight**r
            if par_weight >= thr > weight:
                members.append(w)
            elif weight >= thr:
                nxt.extend(w + (j,) for j in sys.successors(w[-1]))
            # else: an ancestor was already emitted; cannot happen in BFS from roots
        frontier = nxt
    return sorted(members)


def random_rational_system(rng: random.Random, n_min: int = 2, n_max: int = 6) -> MarkovSystem:
    """Random small model with exact rational weights, all invariants satisfied."""
    n = rng.randint(n_min, n_max)
    p = [[Fraction(0)] * n for _ in range(n)]
    c = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        deg = rng.randint(2, n) if n >= 2 else 2
        targets = rng.sample(range(n), deg)
        weights = [rng.randint(1, 9) for _ in targets]
        total = sum(weights)
        for j, wgt in zip(targets, weights):
            p[i][j] = Fraction(wgt, total)
            c[i][j] = Fraction(rng.randint(1, 8), rng.randint(9, 20))
    chi_w = [rng.randint(1, 5) for _ in range(n)]
    chi = [Fraction(w, sum(chi_w)) for w in chi_w]
    return MarkovSystem(p, c, chi)


def exact_member_sandwich(sys: MarkovSystem, r: int, k: int, depth: int) -> tuple[Fraction, Fraction]:
    """Exact (lower, upper) sandwich of the level-k grid codebook at `depth`.

    Straight from the definitions, in Fractions, by recursion over words: the
    level-k members are grouped by (last vertex, p, c) with a memo on exact
    word states, and each group's level-`depth` descendants are laid out in
    its unit cylinder from `realize`'s exact placement.  A descendant at
    local midpoint m with half-width h adds its relative mass times
    (|m - 1/2| + h)^r to the upper sum and max(0, min(|m - 1/2|,
    1/2 + s - |m - 1/2|) - h)^r to the lower, s = min(sep_t, 1); a group
    weighs its sum of chi times p * c^r.  Integer r only.
    """
    from markovquant import realize

    rz = realize(sys)
    s = min(rz.sep_t, 1)
    p_lo = min(sys.edge_p(i, j) for i, j in sys.edges)
    c_lo = min(sys.edge_c(i, j) for i, j in sys.edges)
    thr_k, thr_d = (p_lo * c_lo**r) ** k, (p_lo * c_lo**r) ** depth
    half = Fraction(1, 2)

    @functools.lru_cache(maxsize=None)
    def members(v, p, c):
        found = Counter()
        for j in sys.successors(v):
            p2, c2 = p * sys.edge_p(v, j), c * sys.edge_c(v, j)
            if p2 * c2**r < thr_k:
                found[(j, p2, c2)] += 1
            else:
                found.update(dict(members(j, p2, c2)))
        return tuple(found.items())

    def local(v, p, c, left, length, mass):
        lower = upper = Fraction(0)
        for j in sys.successors(v):
            off, ratio = rz.placement[(v, j)]
            p2, c2 = p * sys.edge_p(v, j), c * sys.edge_c(v, j)
            left2, length2, mass2 = left + off * length, length * ratio, mass * sys.edge_p(v, j)
            if p2 * c2**r < thr_d:
                h = length2 / 2
                a = abs(left2 + h - half)
                upper += mass2 * (a + h) ** r
                lower += mass2 * max(Fraction(0), min(a, half + s - a) - h) ** r
            else:
                lo, up = local(j, p2, c2, left2, length2, mass2)
                lower, upper = lower + lo, upper + up
        return lower, upper

    groups = Counter()
    for v in sys.vertices:
        for key, n in members(v, Fraction(1), Fraction(1)):
            groups[key] += n * sys.chi[v - 1]
    lower = upper = Fraction(0)
    for (v, p, c), chi_sum in groups.items():
        if depth == k:
            lo, up = Fraction(0), half**r
        else:
            lo, up = local(v, p, c, Fraction(0), Fraction(1), Fraction(1))
        lower += chi_sum * p * c**r * lo
        upper += chi_sum * p * c**r * up
    return lower, upper
