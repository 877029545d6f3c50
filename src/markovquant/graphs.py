"""Strongly connected structure of the model digraph.

Decomposes the digraph into SCCs, builds the condensation DAG with its
reachability order, and derives the critical structure for a given order r:
which components attain the global pressure root, how many a single
admissible path can traverse (t_r), the chains of critical components, and
the transient vertex set F outside all critical components.

Pressure roots per component are supplied by the spectral module, which also
sums the weights of the words inside F; this module is purely combinatorial.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Mapping, Sequence

from .model import MarkovSystem, as_fraction, validate_word


def strongly_connected_components(
    n: int, successors: Callable[[int], Sequence[int]]
) -> list[list[int]]:
    """Tarjan's algorithm over vertices 0..n-1, iterative.

    Returns components as sorted vertex lists, ordered by smallest vertex.
    """
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(successors(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(successors(w))))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


@dataclass(frozen=True)
class Condensation:
    """SCC partition with the induced DAG, recorded once by scc_condensation.

    components are ordered by their smallest vertex (1-based vertices);
    component_of[v] is the index of vertex v's component (entry 0 is -1);
    dag_edges are direct inter-component edges (a, b) meaning a precedes b;
    topo_order is a topological order of component indices; reachable[i] is
    the set of component indices j != i reachable from i; acyclic[i] is True
    for a single-vertex component without a self-loop.
    """

    components: tuple[tuple[int, ...], ...]
    component_of: tuple[int, ...]
    dag_edges: tuple[tuple[int, int], ...]
    topo_order: tuple[int, ...]
    reachable: tuple[frozenset[int], ...]
    acyclic: tuple[bool, ...]


def scc_condensation(sys: MarkovSystem) -> Condensation:
    """Strongly connected components of the model digraph and their DAG.

    Component numbering is deterministic (ascending smallest vertex); the
    topological order is the lexicographically smallest one (Kahn with a
    min-heap on component index); each component's reach is gathered in
    reverse topological order.
    """
    comps0 = strongly_connected_components(sys.n, lambda v: [j - 1 for j in sys.successors(v + 1)])
    components = tuple(tuple(v + 1 for v in comp) for comp in comps0)
    component_of = [-1] * (sys.n + 1)
    for i, comp in enumerate(components):
        for v in comp:
            component_of[v] = i
    dag = sorted(
        {
            (component_of[i], component_of[j])
            for i, j in sys.edges
            if component_of[i] != component_of[j]
        }
    )
    acyclic = tuple(
        len(comp) == 1 and not sys.is_edge(comp[0], comp[0]) for comp in components
    )
    # Kahn's algorithm; pick smallest ready index for determinism
    m = len(components)
    indeg = [0] * m
    succ: list[list[int]] = [[] for _ in range(m)]
    for a, b in dag:
        indeg[b] += 1
        succ[a].append(b)
    ready = [i for i in range(m) if indeg[i] == 0]
    heapq.heapify(ready)
    topo: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        topo.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(topo) != m:
        raise AssertionError("condensation has a cycle; SCC decomposition is broken")
    reach: list[frozenset[int]] = [frozenset()] * m
    for i in reversed(topo):
        reach[i] = frozenset(succ[i]).union(*(reach[j] for j in succ[i]))
    return Condensation(
        components=components,
        component_of=tuple(component_of),
        dag_edges=tuple(dag),
        topo_order=tuple(topo),
        reachable=tuple(reach),
        acyclic=acyclic,
    )


#: component is critical iff its root is within this much of the global root
CRITICAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CriticalStructure:
    """Critical components at order r and the quantities driven by them."""

    system: MarkovSystem
    condensation: Condensation
    r: float
    s_r: float
    per_component: tuple[float, ...]
    critical: tuple[bool, ...]
    m_r: int
    t_r: int
    transient_set: frozenset[int]
    # vertex (1-based) -> its critical component index, -1 outside; entry 0 is -1
    critical_of: tuple[int, ...]
    # component index -> its SpectralSolution (None when acyclic); filled by
    # spectral.critical_analysis, empty when assembled from bare roots
    roots: Mapping = field(default_factory=dict)

    @property
    def critical_indices(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.critical) if f)

    def check_order(self, r) -> None:
        """Raise ValueError unless the structure was built at order r."""
        rf = float(as_fraction(r))
        if self.r != rf:
            raise ValueError(f"critical structure built at r = {self.r}, not at r = {rf}")


def critical_structure(
    sys: MarkovSystem, r, per_component_s: Mapping[int, float], cond: Condensation
) -> CriticalStructure:
    """Assemble the critical structure from per-component pressure roots.

    per_component_s maps component index of `cond`, the condensation of sys,
    -> root s_r(H) (0 for acyclic or subcritical components).  t_r is the
    longest path in the condensation DAG counting critical components only,
    which equals the maximum of t_r_of_path over all admissible words because
    components are strongly connected.
    """
    m = len(cond.components)
    per = tuple(float(per_component_s[i]) for i in range(m))
    s_global = max(per)
    critical = tuple(per[i] >= s_global - CRITICAL_TOL and not cond.acyclic[i] for i in range(m))
    # longest weighted path over the DAG, weight 1 on critical components;
    # best[i] >= best[j] for every j that i reaches
    best = [0] * m
    for i in reversed(cond.topo_order):
        best[i] = critical[i] + max((best[j] for j in cond.reachable[i]), default=0)
    critical_of = (-1,) + tuple(i if critical[i] else -1 for i in cond.component_of[1:])
    return CriticalStructure(
        system=sys,
        condensation=cond,
        r=float(as_fraction(r)),
        s_r=s_global,
        per_component=per,
        critical=critical,
        m_r=sum(critical),
        t_r=max(best),
        transient_set=frozenset(v for v in sys.vertices if critical_of[v] < 0),
        critical_of=critical_of,
    )


def enumerate_chains(cs: CriticalStructure, length: int) -> tuple[tuple[int, ...], ...]:
    """All strictly ordered chains of `length` critical components, sorted.

    A chain (H_1, ..., H_l) requires a condensation path from each H_i to
    H_{i+1}.  Reachability between distinct components is a strict partial
    order, so each l-subset of critical components supports at most one
    chain: cardinality is bounded by C(m_r, length).  When all critical
    components are mutually comparable (t_r = m_r) this is C(t_r, length).
    Each chain of length l - 1 grows by the critical components reachable
    from its last one, in ascending order, so the chains come out sorted and
    the cost is linear in the chains found.
    """
    if not 1 <= length <= max(cs.m_r, 1):
        raise ValueError(f"chain length {length} outside 1..{cs.m_r}")
    crit = cs.critical_indices
    reach = cs.condensation.reachable
    after = {i: sorted(j for j in reach[i] if cs.critical[j]) for i in crit}
    chains = [(i,) for i in crit]
    for _ in range(length - 1):
        chains = [ch + (j,) for ch in chains for j in after[ch[-1]]]
    result = tuple(chains)
    if len(result) > comb(cs.m_r, length):
        raise AssertionError(
            f"card(H_{length}) = {len(result)} exceeds C({cs.m_r},{length})"
        )
    return result


def t_r_of_path(cs: CriticalStructure, word: Sequence[int]) -> int:
    """Number of distinct critical components met by the word."""
    w = validate_word(cs.system, word)
    return len({cs.critical_of[v] for v in w} - {-1})


def visited_chain(cs: CriticalStructure, word: Sequence[int]) -> tuple[int, ...]:
    """Ordered tuple of distinct critical components visited, first-visit order.

    The condensation is a DAG, so a path can never re-enter a component it
    left; first-visit order is therefore the chain order.  A word off the
    graph raises InvalidWordError.
    """
    chain: list[int] = []
    for v in validate_word(cs.system, word):
        idx = cs.critical_of[v]
        if idx >= 0 and (not chain or chain[-1] != idx):
            chain.append(idx)
    return tuple(chain)

