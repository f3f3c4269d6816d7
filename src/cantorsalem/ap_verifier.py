"""Finite-depth certification that a tree's support carries no 3-term AP.

Two independent checks per tree:

  * structural certificates: every internal node's child set, viewed in
    Z/M_nZ, admits no progression spanning more than one child cell; the
    oracle verdict is translation invariant, so results are cached by the
    canonical translate of the set;
  * cross-cell scan: over the realized level-n cells, an exhaustive search
    for index triples (a, b, c), not all equal, with
    (a + c - 2b) mod Q in {Q-1, 0, 1} — exactly the triples whose cells can
    host pairwise-distinct points x, y, z with x + z = 2y (mod 1).  Every
    flagged triple is realizable by explicit quarter-grid rationals, which
    `realize_cross_cell_triple` constructs.

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
from typing import Dict, List, Optional, Tuple

from .cantor_tree import MeasureTree, NodePath, level_intervals
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
    """Run the spanning-progression oracle on every internal node's child set.

    Single-child nodes pass trivially.  Oracle runs are deduplicated by the
    canonical translate; a cached failure witness is translated back into
    each node's own coordinates.
    """
    cache: Dict[Tuple[int, Tuple[int, ...]], OracleVerdict] = {}
    failures: List[Tuple[NodePath, ApWitness]] = []
    internal = 0
    for level in range(tree.depth):
        m = tree.schedule.M[level]
        for path in tree.nodes_at_level(level):
            internal += 1
            if tree.schedule.L[level] == 1:
                continue
            child_set = ResidueSet(m, tree.children_of(path))
            shift = child_set.canonical_shift()
            canon = child_set.translate(-shift).elements
            key = (m, canon)
            verdict = cache.get(key)
            if verdict is None:
                verdict = property_ii_oracle(ResidueSet(m, canon))
                cache[key] = verdict
            if not verdict.holds:
                w = verdict.witness
                failures.append(
                    (
                        path,
                        ApWitness(
                            (w.a + shift) % m,
                            (w.b + shift) % m,
                            (w.c + shift) % m,
                            "interval-spanning-AP",
                            m,
                        ),
                    )
                )
    return NodeCertificates(
        all_pass=not failures,
        internal_nodes=internal,
        distinct_sets=len(cache),
        failures=tuple(failures),
    )


def cross_cell_scan(tree: MeasureTree, n: int, line: bool = False) -> Tuple[Tuple[int, int, int], ...]:
    """All feasible cell triples (c_a, c_b, c_c) at level n, c_a <= c_c.

    Circle mode (default) flags triples with (a + c - 2b) mod Q in
    {Q-1, 0, 1}; line mode requires a + c - 2b in {-1, 0, 1} as plain
    integers (no wraparound).  For a tree whose node certificates all
    pass, the returned tuple is empty at every realized level.
    """
    step = level_intervals(tree, n)
    q = step.Q
    offsets = step.offsets
    inset = frozenset(offsets)
    found = set()

    def consider(a: int, b: int, c: int):
        if a == b == c:
            return
        found.add((a, b, c) if a <= c else (c, b, a))

    half_q = q // 2 if q % 2 == 0 else None
    inv2 = pow(2, -1, q) if q % 2 == 1 and q > 1 else None
    for i, a in enumerate(offsets):
        for c in offsets[i:]:
            s = a + c
            for delta in (-1, 0, 1):
                v = s - delta
                if line:
                    if v % 2 == 0 and (v // 2) in inset:
                        consider(a, v // 2, c)
                    continue
                if inv2 is not None:
                    b = (v * inv2) % q
                    if b in inset:
                        consider(a, b, c)
                elif q == 1:
                    consider(a, 0, c)
                elif v % 2 == 0:
                    b = (v // 2) % q
                    if b in inset:
                        consider(a, b, c)
                    b2 = (b + half_q) % q
                    if b2 in inset:
                        consider(a, b2, c)
    return tuple(sorted(found))


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
