"""Markov-type measure models on a finite digraph.

A model is a row-stochastic transition matrix P = (p_ij), a contraction-ratio
matrix C = (c_ij) sharing P's support, and a positive initial distribution chi.
Every vertex must have at least two outgoing edges; ratios satisfy
0 < c_ij < 1 on edges.  Vertices are 1-based throughout the public API.

Finite admissible words sigma = (v_1, ..., v_k) carry multiplicative weights

    p_sigma = prod p_{v_h v_{h+1}},   c_sigma = prod c_{v_h v_{h+1}},

with the convention p = c = 1 for words of length <= 1, and the cylinder
measure mu(J_sigma) = chi_{v_1} * p_sigma.

All probabilities and ratios are stored as exact `fractions.Fraction` values
(decimal strings such as "0.25" and rationals such as "1/3" are both exact);
float views are provided for numerics.  Instances are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

Word = tuple[int, ...]

#: absolute tolerance for stochasticity / normalization checks on exact inputs
NORMALIZATION_TOL = Fraction(1, 10**12)


class ModelFormatError(ValueError):
    """Raised when a model config cannot be parsed into a MarkovSystem."""


class InvalidWordError(ValueError):
    """Raised when a word contains a pair (i, j) that is not an edge."""


def as_fraction(value) -> Fraction:
    """Convert an int, Fraction, decimal/rational string, or float to an exact Fraction.

    Floats go through repr(), so 0.1 means 1/10, not the binary double.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ModelFormatError(f"boolean is not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelFormatError(f"cannot parse number {value!r}") from exc
    raise ModelFormatError(f"cannot parse number {value!r}")


def _check_shape(n: int, p: tuple, c: tuple) -> None:
    for name, mat in (("p", p), ("c", c)):
        if len(mat) != n or any(len(row) != n for row in mat):
            raise ModelFormatError(f"{name} is not an {n}x{n} matrix")


class MarkovSystem:
    """A Markov-type measure model (P, C, chi) on vertices 1..N.

    Parameters
    ----------
    p, c : N x N nested sequences
        Transition probabilities and contraction ratios.  Entries may be
        ints, Fractions, floats, or strings ("1/3", "0.25").
    chi : length-N sequence
        Initial distribution.

    The constructor only enforces shape; use :func:`validate_system` to check
    the measure-theoretic invariants (row sums, out-degrees, support match).
    """

    __slots__ = ("n", "p", "c", "chi", "_succ", "_edges", "_entries", "_chi_float", "_edge_table")

    def __init__(self, p: Sequence[Sequence], c: Sequence[Sequence], chi: Sequence):
        chi_t = tuple(as_fraction(x) for x in chi)
        if not chi_t:
            raise ModelFormatError("empty chi vector")
        p_t = tuple(tuple(as_fraction(x) for x in row) for row in p)
        c_t = tuple(tuple(as_fraction(x) for x in row) for row in c)
        _check_shape(len(chi_t), p_t, c_t)
        # one sign test per entry; the numerator's is cheaper than Fraction.__ne__
        entries = tuple(
            (i + 1, j + 1)
            for i, (p_row, c_row) in enumerate(zip(p_t, c_t))
            for j, (x, y) in enumerate(zip(p_row, c_row))
            if x.numerator or y.numerator
        )
        self._setup(p_t, c_t, chi_t, entries)

    def _setup(self, p: tuple, c: tuple, chi: tuple, entries: tuple) -> None:
        """Store the model; `entries` lists every position where p or c is
        nonzero, in lexicographic order: all that validation reads of P and C."""
        self.n = len(chi)
        self.p = p
        self.c = c
        self.chi = chi
        self._entries = entries
        self._edges = tuple((i, j) for i, j in entries if p[i - 1][j - 1].numerator > 0)
        succ: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self._edges:
            succ[i - 1].append(j)
        self._succ = tuple(map(tuple, succ))
        self._chi_float: np.ndarray | None = None
        self._edge_table: tuple[np.ndarray, ...] | None = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple], chi: Sequence) -> "MarkovSystem":
        """Build from an edge list of (from, to, p, c) with 1-based vertices.

        Only the listed entries are converted and scanned, so the cost beyond
        the two zero matrices is linear in the edges.
        """
        if type(n) is not int:
            raise ModelFormatError(f"n must be an integer, got {n!r}")
        chi_t = tuple(as_fraction(x) for x in chi)
        if len(chi_t) != n:
            raise ModelFormatError(f"chi has length {len(chi_t)}, expected n={n}")
        if not chi_t:
            raise ModelFormatError("empty chi vector")
        p = [[Fraction(0)] * n for _ in range(n)]
        c = [[Fraction(0)] * n for _ in range(n)]
        listed = set()
        for i, j, pij, cij in edges:
            if type(i) is not int or type(j) is not int or not (1 <= i <= n and 1 <= j <= n):
                raise ModelFormatError(f"edge ({i!r},{j!r}): vertices must be integers in 1..{n}")
            if (i, j) in listed:
                raise ModelFormatError(f"duplicate edge ({i},{j})")
            p[i - 1][j - 1] = as_fraction(pij)
            c[i - 1][j - 1] = as_fraction(cij)
            listed.add((i, j))
        p_t, c_t = tuple(map(tuple, p)), tuple(map(tuple, c))
        entries = tuple(
            (i, j) for i, j in sorted(listed) if p_t[i - 1][j - 1].numerator or c_t[i - 1][j - 1].numerator
        )
        system = cls.__new__(cls)
        system._setup(p_t, c_t, chi_t, entries)
        return system

    @classmethod
    def from_config(cls, cfg: dict) -> "MarkovSystem":
        """Build from the JSON config schema.

        Schema: {"n": int, "edges": [{"from": i, "to": j, "p": "...", "c": "..."}],
        "chi": [...]}. Vertices are 1-based.
        """
        try:
            n = cfg["n"]
            edges = [(e["from"], e["to"], e["p"], e["c"]) for e in cfg["edges"]]
            chi = cfg["chi"]
        except (KeyError, TypeError) as exc:
            raise ModelFormatError(f"malformed model config: {exc}") from exc
        if type(chi) is not list:  # a string would iterate as its characters
            raise ModelFormatError(f"chi must be a list, got {chi!r}")
        return cls.from_edges(n, edges, chi)

    @classmethod
    def from_json_file(cls, path) -> "MarkovSystem":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ModelFormatError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_config(cfg)

    # -- accessors -------------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges (i, j) with p_ij > 0, lexicographic order."""
        return self._edges

    def successors(self, i: int) -> tuple[int, ...]:
        """Vertices j with p_ij > 0, ascending.  1-based."""
        if not 1 <= i <= self.n:
            raise IndexError(f"vertex {i} out of range 1..{self.n}")
        return self._succ[i - 1]

    def edge_p(self, i: int, j: int) -> Fraction:
        return self.p[i - 1][j - 1]

    def edge_c(self, i: int, j: int) -> Fraction:
        return self.c[i - 1][j - 1]

    def is_edge(self, i: int, j: int) -> bool:
        return 1 <= i <= self.n and 1 <= j <= self.n and self.p[i - 1][j - 1] > 0

    def chi_float(self) -> np.ndarray:
        """chi as a read-only float array, built on first use."""
        if self._chi_float is None:
            self._chi_float = np.array(self.chi, dtype=float)
            self._chi_float.setflags(write=False)
        return self._chi_float

    def edge_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, log p, log c) of the edges, in `edges` order, as
        read-only arrays with 0-based rows and cols; built on first use."""
        if self._edge_table is None:
            rows = np.array([i - 1 for i, _ in self._edges], dtype=np.intp)
            cols = np.array([j - 1 for _, j in self._edges], dtype=np.intp)
            p = np.array([float(self.p[i - 1][j - 1]) for i, j in self._edges])
            c = np.array([float(self.c[i - 1][j - 1]) for i, j in self._edges])
            self._edge_table = (rows, cols, np.log(p), np.log(c))
            for a in self._edge_table:
                a.setflags(write=False)
        return self._edge_table

    def __repr__(self) -> str:
        return f"MarkovSystem(n={self.n}, edges={len(self._edges)})"


class PathWeight(NamedTuple):
    """Multiplicative weights of a word: p_sigma, c_sigma, and mu(J_sigma)."""

    p_weight: Fraction
    c_weight: Fraction
    measure_weight: Fraction


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def _sum_off_one(values) -> float | None:
    """The exact sum of Fractions, as a float, when it is further than
    NORMALIZATION_TOL from 1; summed as one integer over the lcm of the
    denominators."""
    den = math.lcm(*(x.denominator for x in values))
    num = sum(x.numerator * (den // x.denominator) for x in values)
    tol = NORMALIZATION_TOL
    return num / den if abs(num - den) * tol.denominator > tol.numerator * den else None


def validate_system(sys: MarkovSystem) -> ValidationReport:
    """Check all model invariants; violations are reported, not raised.

    Checks per row i: sum_j p_ij = 1 (within 1e-12), out-degree >= 2,
    c_ij > 0 iff p_ij > 0, c_ij < 1; and chi > 0 with sum 1 (within 1e-12).
    Only the entries where p or c is nonzero are read, so the cost is linear
    in the edges.
    """
    bad: list[str] = []
    row_cols: list[list[int]] = [[] for _ in range(sys.n)]
    for i, j in sys._entries:
        row_cols[i - 1].append(j)
    for i, cols in enumerate(row_cols, start=1):
        p_row, c_row = sys.p[i - 1], sys.c[i - 1]
        ps = [p_row[j - 1] for j in cols]
        if any(x.numerator < 0 or x.numerator > x.denominator for x in ps):
            bad.append(f"row {i} has a probability outside [0, 1]")
        total = _sum_off_one(ps)
        if total is not None:
            bad.append(f"row {i} sums to {total:.12g}")
        deg = len(sys.successors(i))
        if deg < 2:
            bad.append(f"row {i} has out-degree {deg} < 2")
        for j in cols:
            pij, cij = p_row[j - 1], c_row[j - 1]
            if (pij.numerator > 0) != (cij.numerator > 0):
                bad.append(f"entry ({i},{j}): c and p support mismatch")
            if cij.numerator >= cij.denominator or cij.numerator < 0:
                bad.append(f"entry ({i},{j}): ratio {float(cij):.12g} outside [0, 1)")
    if any(x.numerator <= 0 for x in sys.chi):
        bad.append("chi has a non-positive entry")
    total = _sum_off_one(sys.chi)
    if total is not None:
        bad.append(f"chi sums to {total:.12g}")
    return ValidationReport(ok=not bad, violations=tuple(bad))


def validate_word(sys: MarkovSystem, word: Sequence[int]) -> Word:
    """Return the word as a tuple, raising InvalidWordError on a non-edge pair."""
    w = tuple(int(v) for v in word)
    for v in w:
        if not 1 <= v <= sys.n:
            raise InvalidWordError(f"vertex {v} out of range 1..{sys.n}")
    for a, b in zip(w, w[1:]):
        if not sys.is_edge(a, b):
            raise InvalidWordError(f"({a},{b}) is not an edge")
    return w


def path_weight(sys: MarkovSystem, word: Sequence[int]) -> PathWeight:
    """Exact weights of a word; the empty word gets unit weights.

    measure_weight is chi_{v_1} * p_sigma, the mu-mass of the cylinder
    J_sigma; for the empty word it is 1 (mass of the whole space).
    """
    w = validate_word(sys, word)
    p = Fraction(1)
    c = Fraction(1)
    for a, b in zip(w, w[1:]):
        p *= sys.edge_p(a, b)
        c *= sys.edge_c(a, b)
    mass = sys.chi[w[0] - 1] * p if w else Fraction(1)
    return PathWeight(p_weight=p, c_weight=c, measure_weight=mass)


def edge_extremes(sys: MarkovSystem) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(p_min, c_min, p_max, c_max) over edges, exact."""
    ps = [sys.edge_p(i, j) for i, j in sys.edges]
    cs = [sys.edge_c(i, j) for i, j in sys.edges]
    return min(ps), min(cs), max(ps), max(cs)


def load_model(path) -> MarkovSystem:
    """Load a model config JSON file."""
    return MarkovSystem.from_json_file(path)
