"""Finite-depth certification that a tree's support carries no 3-term AP.

Two independent checks per tree:

  * structural certificates: every internal node's child set, viewed in
    Z/M_nZ, admits no progression spanning more than one child cell; each
    child set is a translate of its level's base set and the oracle verdict
    is translation invariant, so there is one verdict per level;
  * cross-cell scan: over the realized level-n cells, every index triple
    (a, b, c), not all equal, with (a + c - 2b) mod Q in {Q-1, 0, 1} —
    exactly the triples whose cells can host pairwise-distinct points
    x, y, z with x + z = 2y (mod 1).  Every flagged triple is realizable
    by explicit quarter-grid rationals, which `realize_cross_cell_triple`
    constructs.  A pruned descent over node triples finds them without the
    oracle; on a certified tree it costs about L^3 (P_0 + ... + P_{n-1})
    steps instead of P_n^2 cell pairs.

When all node certificates pass, the scan provably returns nothing: a
spanning triple at level n restricts, inside a minimal common ancestor
cell, to a spanning triple of that node's child set.  Points confined to
one level-n cell stay undecided at depth n (deeper runs resolve them), and
cell endpoints are excluded from the certified support; both caveats are
recorded in the report note.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Dict, List, Optional, Tuple

from .cantor_tree import MeasureTree, NodePath, _path_of
from .discrete_ap import ApWitness, OracleVerdict, ResidueSet, property_ii_oracle

_DEFERRED_NOTE = (
    "progressions confined to a single level cell are undecided at this depth "
    "(rerun deeper); cell endpoints are excluded from the certified support, "
    "and cells are scanned half-open so endpoints are never double counted"
)

# fractional offsets (quarters) realizing a feasible triple, keyed by the
# residue of a + c - 2b: alpha + gamma - 2*beta must equal its negative
_QUARTERS = {
    0: (Fraction(0, 4), Fraction(1, 4), Fraction(2, 4)),
    1: (Fraction(0, 4), Fraction(3, 4), Fraction(2, 4)),
    -1: (Fraction(1, 4), Fraction(0, 4), Fraction(3, 4)),
}


@dataclass(frozen=True)
class NodeCertificates:
    """Aggregate of per-node structural verdicts."""

    all_pass: bool
    internal_nodes: int
    distinct_sets: int  # deduplicated (modulus, elements) classes checked
    failures: Tuple[Tuple[NodePath, ApWitness], ...]


@dataclass(frozen=True)
class ApCertificate:
    level: int
    certified: bool
    node_checks: NodeCertificates
    feasible_triples: Tuple[Tuple[int, int, int], ...]
    line_mode: bool
    note: str


def node_certificates(tree: MeasureTree) -> NodeCertificates:
    """Certify every internal node's child set, with one oracle verdict per level.

    Single-child nodes pass trivially.  Every child set of a level is a
    translate of the level's base set, so one verdict, keyed by the base
    set's canonical translate, decides the whole level.  Only a failing
    level visits its translations: the witness is moved into each distinct
    translation's coordinates, and failing nodes are named by their paths.
    """
    sched = tree.schedule
    verdicts: Dict[Tuple[int, Tuple[int, ...]], OracleVerdict] = {}
    failures: List[Tuple[NodePath, ApWitness]] = []
    for level, row in enumerate(tree.translations):
        m, base = sched.M[level], sched.base_sets[level]
        if sched.L[level] == 1:
            continue
        canon = (m, base.canonical_translate())
        if canon not in verdicts:
            verdicts[canon] = property_ii_oracle(ResidueSet(*canon))
        w = verdicts[canon].witness
        if w is None:
            continue
        moved = {}
        for ell in set(row):
            shift = base.translate(ell).canonical_shift()
            moved[ell] = ApWitness((w.a + shift) % m, (w.b + shift) % m, (w.c + shift) % m, "interval-spanning-AP", m)
        failures.extend((_path_of(c, level, sched), moved[ell]) for c, ell in zip(tree.levels[level].offsets, row))
    return NodeCertificates(
        all_pass=not failures,
        internal_nodes=sum(sched.P(level) for level in range(tree.depth)),
        distinct_sets=len(verdicts),
        failures=tuple(failures),
    )


def cross_cell_scan(tree: MeasureTree, n: int, line: bool = False) -> Tuple[Tuple[int, int, int], ...]:
    """All feasible cell triples (c_a, c_b, c_c) at level n, c_a <= c_c.

    Circle mode (default) flags triples with (a + c - 2b) mod Q in
    {Q-1, 0, 1}; line mode requires a + c - 2b in {-1, 0, 1} as plain
    integers (no wraparound).  For a tree whose node certificates all
    pass, the returned tuple is empty at every realized level.

    The search descends level by level over triples of node indices
    (A, B, C), A <= C, dropping each child triple that fails the test at its
    own level.  That loses nothing: with w = Q_n / Q_j, a level-n triple
    below level-j cells has a + c - 2b = (A + C - 2B) w + e with
    |e| <= 2w - 2, so it passes only if (A + C - 2B) passes at level j.
    Diagonal triples (A, A, A) always pass and are visited, not stored; on
    a certified tree no other triple survives, otherwise the work grows
    with the number of feasible triples.
    """
    if not 0 <= n <= tree.depth:
        raise ValueError(f"level {n} exceeds realized depth {tree.depth}")
    sched = tree.schedule
    triples: List[Tuple[int, int, int]] = []  # surviving index triples, never all equal
    for level in range(n):
        width, q = sched.L[level], sched.Q(level + 1)
        keep = (-1, 0, 1) if line else (q - 1, 0, 1)
        cells = list(enumerate(tree.levels[level + 1].offsets))
        # (index, offset) of node x's children
        kids = [cells[i:i + width] for i in range(0, len(cells), width)]
        # the lone child of a single-child node is no cross-cell triple
        diagonal = ((x, x, x) for x in range(len(kids))) if width > 1 else ()
        survivors = []
        for A, B, C in chain(diagonal, triples):
            ka, kb, kc = kids[A], kids[B], kids[C]
            for i, (ia, a) in enumerate(ka):
                for ic, c in kc[i:] if A == C else kc:
                    s = a + c
                    for ib, b in kb:
                        d = s - 2 * b
                        if (d if line else d % q) in keep and not ia == ib == ic:
                            survivors.append((ia, ib, ic))
        triples = survivors
    offsets = tree.levels[n].offsets
    return tuple((offsets[a], offsets[b], offsets[c]) for a, b, c in sorted(triples))


def realize_cross_cell_triple(triple: Tuple[int, int, int], Q: int) -> Tuple[Fraction, Fraction, Fraction]:
    """Explicit rational points witnessing a feasible cell triple.

    Returns pairwise-distinct (x, y, z) with x + z = 2y (mod 1), x in cell
    a, y in cell b, z in cell c.  Quarter offsets suffice for every
    feasible residue class.
    """
    a, b, c = triple
    for v in triple:
        if not 0 <= v < Q:
            raise ValueError(f"cell {v} outside [0, {Q})")
    if a == b == c:
        raise ValueError("triple must not be a single cell")
    d = (a + c - 2 * b) % Q
    if d == 0:
        key = 0
    elif d == 1:
        key = 1
    elif d == Q - 1:
        key = -1
    else:
        raise ValueError(f"triple {triple} is not feasible (residue {d})")
    alpha, beta, gamma = _QUARTERS[key]
    x = Fraction(a + alpha, Q)
    y = Fraction(b + beta, Q)
    z = Fraction(c + gamma, Q)
    if (x + z - 2 * y) % 1 != 0:
        raise RuntimeError(f"realized points {x}, {y}, {z} do not form a progression mod 1")
    if len({x, y, z}) != 3:
        raise RuntimeError(f"realized points {x}, {y}, {z} are not pairwise distinct")
    return x, y, z


def ap_report(tree: MeasureTree, n: Optional[int] = None, line: bool = False) -> ApCertificate:
    """Bundle node certificates with the level-n cross-cell scan; n defaults to the depth."""
    if n is None:
        n = tree.depth
    checks = node_certificates(tree)
    triples = cross_cell_scan(tree, n, line=line)
    return ApCertificate(
        level=n,
        certified=checks.all_pass and not triples,
        node_checks=checks,
        feasible_triples=triples,
        line_mode=line,
        note=_DEFERRED_NOTE,
    )
