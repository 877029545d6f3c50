"""Seeded model generator for the analyze-random workload.

Two families, both written as model config JSON:

* dense: the recipe of the test suite's random_rational_system (out-degree
  2..n, p weights 1..9 normalised, c = a/b with a in 1..8, b in 9..20),
  with n in 4..10;
* ring: a directed n-cycle (n in 20..120) where every vertex also has one
  chord to a random vertex.  These are sparse and cyclic; power iteration
  needs several times the work per vertex it needs on the dense family.
  (Chords only a few steps ahead make the cycle nearly periodic, and one
  120-vertex model of that kind alone takes seconds per pass.)

Sizes are fixed (dense n cycles through 4..10, ring n steps from 20 to
120); the seed draws the structure and weights.  Fixed sizes keep the work of
one pass close across seeds.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

N_DENSE = 40
N_RING = 10


def _edge(i: int, j: int, p: Fraction, c: Fraction) -> dict:
    return {"from": i + 1, "to": j + 1, "p": str(p), "c": str(c)}


def _chi(rng: random.Random, n: int) -> list:
    w = [rng.randint(1, 5) for _ in range(n)]
    return [str(Fraction(x, sum(w))) for x in w]


def dense_model(rng: random.Random, n: int) -> dict:
    edges = []
    for i in range(n):
        targets = rng.sample(range(n), rng.randint(2, n))
        weights = [rng.randint(1, 9) for _ in targets]
        for j, wgt in sorted(zip(targets, weights)):
            c = Fraction(rng.randint(1, 8), rng.randint(9, 20))
            edges.append(_edge(i, j, Fraction(wgt, sum(weights)), c))
    return {"n": n, "edges": edges, "chi": _chi(rng, n)}


def ring_model(rng: random.Random, n: int) -> dict:
    edges = []
    for i in range(n):
        chord = rng.choice([j for j in range(n) if j != (i + 1) % n])
        wgt = rng.randint(1, 9)
        p_next = Fraction(wgt, wgt + rng.randint(1, 9))
        out = {(i + 1) % n: p_next, chord: 1 - p_next}
        for j in sorted(out):
            c = Fraction(rng.randint(1, 8), rng.randint(9, 20))
            edges.append(_edge(i, j, out[j], c))
    return {"n": n, "edges": edges, "chi": _chi(rng, n)}


def generate(seed: int, out_dir: Path) -> list[Path]:
    """Write N_DENSE dense and N_RING ring models; return their paths."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for idx in range(N_DENSE + N_RING):
        if idx < N_DENSE:
            family, cfg = "dense", dense_model(rng, 4 + idx % 7)
        else:
            family, cfg = "ring", ring_model(rng, 20 + (idx - N_DENSE) * 100 // (N_RING - 1))
        path = out_dir / f"{family}_{idx:02d}.json"
        path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
