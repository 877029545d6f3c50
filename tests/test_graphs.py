"""Condensation, critical structure, chains, and the transient mass."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import markovquant
from markovquant import (
    InvalidWordError,
    MarkovSystem,
    critical_analysis,
    critical_structure,
    enumerate_chains,
    path_weight,
    scc_condensation,
    solve_sr,
    t_r_of_path,
    transient_sums,
    visited_chain,
)
from conftest import DECAY_LIMIT_B, S1_H1_B, all_words, random_rational_system


def oracle_chains(cs, length):
    """The definition: every ordered `length`-tuple of distinct critical
    components, each reaching the next in the condensation, sorted."""
    reach = cs.condensation.reachable
    return tuple(sorted(
        tup for tup in itertools.permutations(cs.critical_indices, length)
        if all(b in reach[a] for a, b in zip(tup, tup[1:]))
    ))


def reference_transient_sum(cs, s, n: int) -> float:
    """The length-n transient sum as it was computed one length at a time:
    the F-restricted matrix built edge by edge from the Fractions, then n - 1
    mat-vecs from the ones vector."""
    fset = sorted(cs.transient_set)
    if not fset:
        return 0.0
    if n == 1:
        return float(len(fset))
    sys, rf, sf = cs.system, cs.r, float(s)
    expo = sf / (sf + rf)
    idx = {v: i for i, v in enumerate(fset)}
    b = np.zeros((len(fset), len(fset)))
    for i, j in sys.edges:
        if i in idx and j in idx:
            b[idx[i], idx[j]] = (float(sys.edge_p(i, j)) * float(sys.edge_c(i, j)) ** rf) ** expo
    vec = np.ones(len(fset))
    for _ in range(n - 1):
        vec = b @ vec
    return float(vec.sum())


def bfs_reach(sys: MarkovSystem, v: int) -> set[int]:
    """Every vertex reachable from v by a nonempty path, by breadth-first search."""
    seen = set(sys.successors(v))
    queue = list(seen)
    for w in queue:  # the queue grows while it is read
        for x in sys.successors(w):
            if x not in seen:
                seen.add(x)
                queue.append(x)
    return seen


def chained_blocks(m: int) -> MarkovSystem:
    """m copies of B's critical block in a row, ending in B's sink block.

    Block i holds 2i-1 and 2i, with edges 2i-1 -> 2i-1, 2i-1 -> 2i,
    2i -> 2i-1 and the link 2i -> 2i+1; the sink {2m+1, 2m+2} is complete
    with c = 1/9.  Every p is 1/2 and every other c is 1/3, so the blocks are
    critical and each reaches all later ones: t_r = m_r = m.
    """
    edges = []
    for a in range(1, 2 * m, 2):
        edges += [(a, a, "1/2", "1/3"), (a, a + 1, "1/2", "1/3"),
                  (a + 1, a, "1/2", "1/3"), (a + 1, a + 2, "1/2", "1/3")]
    s = 2 * m + 1
    edges += [(i, j, "1/2", "1/9") for i in (s, s + 1) for j in (s, s + 1)]
    return MarkovSystem.from_edges(s + 1, edges, [Fraction(1, s + 1)] * (s + 1))


def disjoint_blocks(m: int) -> dict:
    """The model file of m equal, disjoint complete 2-vertex blocks (every
    p = 1/2, c = 1/3): m critical components, no two comparable."""
    edges = [
        {"from": i, "to": j, "p": "1/2", "c": "1/3"}
        for a in range(1, 2 * m, 2) for i in (a, a + 1) for j in (a, a + 1)
    ]
    return {"n": 2 * m, "edges": edges, "chi": [f"1/{2 * m}"] * (2 * m)}


class TestCondensation:
    def test_fixture_a_single_component(self, sys_a):
        cond = scc_condensation(sys_a)
        assert cond.components == ((1, 2),)
        assert cond.dag_edges == ()
        assert cond.acyclic == (False,)

    def test_fixture_b_components_and_order(self, sys_b):
        cond = scc_condensation(sys_b)
        assert cond.components == ((1, 2), (3, 4), (5,), (6, 7))
        assert cond.acyclic == (False, False, True, False)
        # dag order {1,2} < {5} < {3,4} < {6,7}
        assert set(cond.dag_edges) == {(0, 2), (2, 1), (1, 3)}
        assert cond.topo_order == (0, 2, 1, 3)

    def test_fixture_c_incomparable(self, sys_c):
        cond = scc_condensation(sys_c)
        assert cond.components == ((1, 2), (3, 4), (5,))
        reach = cond.reachable
        i12 = cond.components.index((1, 2))
        i34 = cond.components.index((3, 4))
        i5 = cond.components.index((5,))
        assert i34 not in reach[i12] and i12 not in reach[i34]
        assert {i12, i34} <= set(reach[i5])

    def test_every_edge_is_internal_or_dag(self, sys_b):
        cond = scc_condensation(sys_b)
        for i, j in sys_b.edges:
            a, b = cond.component_of[i], cond.component_of[j]
            assert a == b or (a, b) in cond.dag_edges

    def test_partition(self, sys_b):
        cond = scc_condensation(sys_b)
        seen = sorted(v for comp in cond.components for v in comp)
        assert seen == list(sys_b.vertices)

    def test_dag_edges_respect_topo_order(self, sys_b):
        cond = scc_condensation(sys_b)
        pos = {cidx: t for t, cidx in enumerate(cond.topo_order)}
        assert all(pos[a] < pos[b] for a, b in cond.dag_edges)

    def test_stored_record_matches_bfs(self, sys_a, sys_b, sys_c):
        # component_of[v] is the component holding v, and component j is in
        # reachable[i] iff j != i and some vertex of i reaches one of j
        models = [sys_a, sys_b, sys_c, chained_blocks(4)]
        models += [random_rational_system(random.Random(seed)) for seed in range(40)]
        for model in models:
            cond = scc_condensation(model)
            reach = {v: bfs_reach(model, v) for v in model.vertices}
            assert cond.component_of[0] == -1 and len(cond.component_of) == model.n + 1
            for v in model.vertices:
                same = {w for w in model.vertices if w == v or (w in reach[v] and v in reach[w])}
                assert set(cond.components[cond.component_of[v]]) == same
            for i, comp in enumerate(cond.components):
                below = {cond.component_of[w] for v in comp for w in reach[v]} - {i}
                assert cond.reachable[i] == below, (model, i)

    def test_scc_against_reachability_closure(self):
        # brute force: i ~ j iff i reaches j and j reaches i
        import random

        from markovquant.graphs import strongly_connected_components

        rng = random.Random(2718)
        for _ in range(50):
            n = rng.randint(1, 9)
            adj = [[rng.random() < 0.3 for _ in range(n)] for _ in range(n)]
            reach = [[adj[i][j] or i == j for j in range(n)] for i in range(n)]
            for m in range(n):
                for i in range(n):
                    for j in range(n):
                        reach[i][j] = reach[i][j] or (reach[i][m] and reach[m][j])
            expected = sorted(
                {tuple(sorted(j for j in range(n) if reach[i][j] and reach[j][i]))
                 for i in range(n)}
            )
            got = strongly_connected_components(
                n, lambda v: [j for j in range(n) if adj[v][j]]
            )
            assert sorted(tuple(c) for c in got) == expected


class TestCriticalStructure:
    def test_fixture_b_synthetic_roots(self, sys_b):
        # isolates the combinatorics from the spectral solver
        cond = scc_condensation(sys_b)
        per = {0: 0.367184, 1: 0.367184, 2: 0.0, 3: 0.315465}
        cs = critical_structure(sys_b, 1, per, cond=cond)
        assert cs.m_r == 2 and cs.t_r == 2
        assert cs.critical == (True, True, False, False)
        assert cs.transient_set == frozenset({5, 6, 7})

    def test_tolerance_window(self, sys_b):
        cond = scc_condensation(sys_b)
        per = {0: 0.5, 1: 0.5 - 5e-10, 2: 0.0, 3: 0.1}
        cs = critical_structure(sys_b, 1, per, cond=cond)
        assert cs.critical[:2] == (True, True)
        per = {0: 0.5, 1: 0.5 - 1e-6, 2: 0.0, 3: 0.1}
        cs = critical_structure(sys_b, 1, per, cond=cond)
        assert cs.critical[:2] == (True, False)

    def test_acyclic_component_never_critical(self, sys_b):
        cond = scc_condensation(sys_b)
        # even if its reported root ties the max, {5} is acyclic
        per = {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.1}
        cs = critical_structure(sys_b, 1, per, cond=cond)
        assert not cs.critical[2]

    def test_fixtures_via_spectral(self, sys_a, sys_b, sys_c):
        for sys, expected in ((sys_a, (1, 1)), (sys_b, (2, 2)), (sys_c, (2, 1))):
            cs = critical_analysis(sys, 1)
            assert (cs.m_r, cs.t_r) == expected

    def test_fixture_a_no_transients(self, sys_a):
        cs = critical_analysis(sys_a, 1)
        assert cs.transient_set == frozenset()

    def test_s_r_is_the_full_scope_root(self, sys_b, sys_c):
        # Psi on the full scope is the maximum over the components' cyclic
        # blocks, so its root is the largest component root, bit for bit;
        # the random seeds are those of 0..79 with two or more components
        systems = [sys_b, sys_c]
        systems += [random_rational_system(random.Random(seed)) for seed in (1, 5, 11, 13, 22, 44)]
        systems += [chained_blocks(m) for m in (2, 3, 4)]
        systems += [MarkovSystem.from_config(disjoint_blocks(m)) for m in (2, 5, 12)]
        for sys in systems:
            assert len(scc_condensation(sys).components) >= 2
            for r in (Fraction(1, 2), 1, Fraction(3, 2), 2):
                assert critical_analysis(sys, r).s_r == solve_sr(sys, "full", r).root, (sys, r)


class TestChains:
    def test_fixture_b_chains(self, sys_b):
        cs = critical_analysis(sys_b, 1)
        assert enumerate_chains(cs, 1) == ((0,), (1,))
        assert enumerate_chains(cs, 2) == ((0, 1),)

    def test_fixture_c_no_pairs(self, sys_c):
        cs = critical_analysis(sys_c, 1)
        assert enumerate_chains(cs, 1) == ((0,), (1,))
        assert enumerate_chains(cs, 2) == ()

    def test_length_out_of_range(self, sys_b):
        cs = critical_analysis(sys_b, 1)
        with pytest.raises(ValueError):
            enumerate_chains(cs, 0)
        with pytest.raises(ValueError):
            enumerate_chains(cs, 3)

    @pytest.mark.parametrize("r", [1, Fraction(3, 2), 2])
    def test_matches_the_definition(self, sys_a, sys_b, sys_c, r):
        models = [sys_a, sys_b, sys_c]
        models += [random_rational_system(random.Random(seed)) for seed in range(40)]
        for model in models:
            cs = critical_analysis(model, r)
            for length in range(1, max(cs.m_r, 1) + 1):
                assert enumerate_chains(cs, length) == oracle_chains(cs, length), (model, length)

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("r", [1, 2])
    def test_comparable_blocks(self, m, r):
        cs = critical_analysis(chained_blocks(m), r)
        assert cs.m_r == cs.t_r == m
        for length in range(1, m + 1):
            chains = enumerate_chains(cs, length)
            assert len(chains) == math.comb(m, length)
            assert chains == oracle_chains(cs, length)

    def test_many_incomparable_components_run_promptly(self, tmp_path):
        # 12 critical components: filtering all their orderings would take
        # hours; in a subprocess, so that a stall fails rather than hangs
        model = tmp_path / "blocks.json"
        model.write_text(json.dumps(disjoint_blocks(12)))
        env = dict(os.environ)
        src = str(Path(markovquant.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])

        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "markovquant.cli", *args, str(model)], env=env,
                capture_output=True, text=True, timeout=60, check=True,
            ).stdout

        (report,) = json.loads(cli("analyze"))["orders"]
        assert report["m_r"] == 12 and report["t_r"] == 1
        assert report["chains"] == {"1": [[i] for i in range(12)]}
        assert cli("verify").splitlines()[-1].startswith("verification: ok")

    def test_cardinality_bound(self, sys_a, sys_b, sys_c):
        # C(m_r, l) always; the C(t_r, l) refinement holds when the critical
        # components form a single chain (t_r == m_r), as in A and B
        for sys in (sys_a, sys_b, sys_c):
            cs = critical_analysis(sys, 1)
            for length in range(1, cs.m_r + 1):
                card = len(enumerate_chains(cs, length))
                assert card <= math.comb(cs.m_r, length)
                if cs.t_r == cs.m_r:
                    assert card <= math.comb(cs.t_r, length)


class TestPathCounts:
    def test_examples(self, sys_b):
        cs = critical_analysis(sys_b, 1)
        assert t_r_of_path(cs, (1, 2, 5, 3)) == 2
        assert t_r_of_path(cs, (6, 7, 6)) == 0
        assert t_r_of_path(cs, (3, 4, 3)) == 1

    @pytest.mark.parametrize("word", [(0, 1), (1, 8), (1, 6)])
    def test_words_off_the_graph_refused(self, sys_b, word):
        # vertex 0 or 8 is outside B's 1..7, and (1, 6) is not an edge
        cs = critical_analysis(sys_b, 1)
        for count in (t_r_of_path, visited_chain):
            with pytest.raises(InvalidWordError):
                count(cs, word)

    def test_t_r_is_attained_by_brute_force(self, sys_a, sys_b, sys_c):
        for sys in (sys_a, sys_b, sys_c):
            cs = critical_analysis(sys, 1)
            best = 0
            for length in range(1, 9):
                best = max(
                    (t_r_of_path(cs, w) for w in all_words(sys, length)), default=0
                )
                if best == cs.t_r:
                    break
            assert best == cs.t_r

    def test_visited_chain_matches_definition(self, sys_b):
        cs = critical_analysis(sys_b, 1)
        for w in all_words(sys_b, 6)[:500]:
            chain = visited_chain(cs, w)
            # distinct, critical, in first-visit order
            assert len(set(chain)) == len(chain)
            assert all(cs.critical[c] for c in chain)
            firsts = []
            for v in w:
                c = cs.condensation.component_of[v]
                if cs.critical[c] and c not in firsts:
                    firsts.append(c)
            assert tuple(firsts) == chain
            assert len(chain) == t_r_of_path(cs, w)


class TestTransientSum:
    def test_empty_transient_set(self, sys_a):
        cs = critical_analysis(sys_a, 1)
        assert transient_sums(cs, cs.s_r, 5) == [0.0] * 5

    def test_length_one_counts_vertices(self, sys_b):
        cs = critical_analysis(sys_b, 1)
        assert transient_sums(cs, cs.s_r, 1) == [3.0]

    def test_length_two_value(self, sys_b):
        # words fully inside F = {5,6,7}: only 66, 67, 76, 77 qualify
        # (successors of 5 leave F), each of weight 1/18
        cs = critical_analysis(sys_b, 1)
        expo = cs.s_r / (cs.s_r + 1.0)
        expected = 4.0 * (1.0 / 18.0) ** expo
        assert transient_sums(cs, cs.s_r, 2)[1] == pytest.approx(expected, rel=1e-12)

    def test_matches_word_enumeration(self, sys_b):
        cs = critical_analysis(sys_b, 1)
        fset = cs.transient_set
        expo = cs.s_r / (cs.s_r + 1.0)
        sums = transient_sums(cs, cs.s_r, 6)
        for n in range(1, 7):
            expected = 0.0
            for w in all_words(sys_b, n):
                if all(v in fset for v in w):
                    pw = path_weight(sys_b, w)
                    expected += float(pw.p_weight * pw.c_weight) ** expo
            assert sums[n - 1] == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_geometric_ratio_converges(self, sys_b):
        cs = critical_analysis(sys_b, 1)
        sums = dict(enumerate(transient_sums(cs, cs.s_r, 61), start=1))
        ratios = [sums[n + 1] / sums[n] for n in range(10, 61)]
        assert all(0.90 <= q <= 0.94 for q in ratios)
        assert ratios[-1] == pytest.approx(DECAY_LIMIT_B, abs=1e-6)

    def test_depth_must_be_positive(self, sys_b):
        cs = critical_analysis(sys_b, 1)
        with pytest.raises(ValueError):
            transient_sums(cs, cs.s_r, 0)

    @pytest.mark.parametrize("r", [1, Fraction(3, 2)])
    @pytest.mark.parametrize("name", ["b", "c"])
    def test_matches_the_per_length_loop(self, sys_b, sys_c, name, r):
        cs = critical_analysis({"b": sys_b, "c": sys_c}[name], r)
        sums = transient_sums(cs, cs.s_r, 61)
        assert len(sums) == 61
        for n, got in enumerate(sums, start=1):
            assert got == pytest.approx(reference_transient_sum(cs, cs.s_r, n), rel=1e-12, abs=0.0), n

    def test_root_value_used(self, sys_b):
        # the solved root feeding the exponent matches the frozen oracle
        cs = critical_analysis(sys_b, 1)
        assert cs.s_r == pytest.approx(S1_H1_B, abs=1e-8)
