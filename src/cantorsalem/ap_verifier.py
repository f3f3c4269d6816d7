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
    constructs.  A pruned descent over integer arrays of node triples
    finds them without the oracle.  Level j costs L_j^3 per distinct
    translation of the level plus L_j^3 per triple surviving at it, instead
    of P_n^2 cell pairs; a certified tree keeps no triple, so its cost does
    not grow with the node count.

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

import numpy as np

from .cantor_tree import MeasureTree, NodePath, _children, _int_dtype, _path_of, level_intervals
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

# child triples tested per block of the scan (at least L^2); bounds the temporaries
# on wide bases and hit-dense trees, where the candidates far outnumber the survivors
_BLOCK_ELEMS = 1 << 16


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
    canons: Dict[Tuple[int, Tuple[int, ...]], Tuple[int, Tuple[int, ...]]] = {}  # each base set canonicalized once
    verdicts: Dict[Tuple[int, Tuple[int, ...]], OracleVerdict] = {}
    failures: List[Tuple[NodePath, ApWitness]] = []
    for level, (row, step) in enumerate(zip(tree.translations, tree.levels)):
        m, base = sched.M[level], sched.base_sets[level]
        if sched.L[level] == 1:
            continue
        key = (m, base.elements)
        if key not in canons:
            canons[key] = (m, base.canonical_translate())
        canon = canons[key]
        if canon not in verdicts:
            verdicts[canon] = property_ii_oracle(ResidueSet(*canon))
        w = verdicts[canon].witness
        if w is None:
            continue
        moved, row = {}, row.tolist()
        for ell in set(row):
            shift = base.translate(ell).canonical_shift()
            moved[ell] = ApWitness((w.a + shift) % m, (w.b + shift) % m, (w.c + shift) % m, "interval-spanning-AP", m)
        failures.extend((_path_of(c, level, sched), moved[ell]) for c, ell in zip(step.offsets.tolist(), row))
    return NodeCertificates(
        all_pass=not failures,
        internal_nodes=sum(sched.P(level) for level in range(tree.depth)),
        distinct_sets=len(verdicts),
        failures=tuple(failures),
    )


def _child_residues(s, rows_a, rows_b, rows_c, digits, m: int, q: Optional[int]):
    """(t, i, j, k, s') of the passing child triples, in blocks of about _BLOCK_ELEMS candidates:
    several node triples, or past L^3 > _BLOCK_ELEMS some first-child digits i of one.

    Node triple t has residue s[t] and child digits d_a, d_b, d_c = digits[rows_a[t]],
    digits[rows_b[t]], digits[rows_c[t]]; its child (i, j, k) has residue s' = s[t] M +
    d_a[i] + d_c[k] - 2 d_b[j], taken mod q into {-1, 0, 1} when q is given, and passes
    when s' is in {-1, 0, 1}.
    """
    width = digits.shape[1]
    step, span = max(1, _BLOCK_ELEMS // width ** 3), max(1, min(width, _BLOCK_ELEMS // width ** 2))
    found = []
    for lo in range(0, len(s), step):
        da, db, dc = (digits[rows[lo:lo + step]] for rows in (rows_a, rows_b, rows_c))
        rest = s[lo:lo + step].astype(digits.dtype)[:, None, None] * m - 2 * db[:, :, None] + dc[:, None, :]
        for i in range(0, width, span):  # first-child digits i ... i + span - 1
            res = rest[:, None] + da[:, i:i + span, None, None]
            if q is not None:
                res %= q
                res[res == q - 1] = -1
            hit = np.nonzero((res >= -1) & (res <= 1))
            found.append((hit[0] + lo, hit[1] + i, *hit[2:], res[hit].astype(np.int64)))
    return tuple(np.concatenate(parts) for parts in zip(*found))


def cross_cell_scan(tree: MeasureTree, n: int, line: bool = False) -> Tuple[Tuple[int, int, int], ...]:
    """All feasible cell triples (c_a, c_b, c_c) at level n, c_a <= c_c.

    Circle mode (default) flags triples with (a + c - 2b) mod Q in
    {Q-1, 0, 1}; line mode requires a + c - 2b in {-1, 0, 1} as plain
    integers (no wraparound).  For a tree whose node certificates all
    pass, the returned tuple is empty at every realized level.

    The search descends level by level over int64 arrays of node index
    triples (A, B, C), A <= C, never all equal, dropping each child triple
    that fails the test at its own level.  That loses nothing: with
    w = Q_n / Q_j, a level-n triple below level-j cells has a + c - 2b =
    (A + C - 2B) w + e with |e| <= 2w - 2, so it passes only if (A + C - 2B)
    passes at level j.  Each triple carries its residue s in {-1, 0, 1};
    a child's is s M + d_a + d_c - 2 d_b in the child digits, reduced mod Q
    only while the parent's Q < 3, since beyond that |s M + ...| < 3M <= Q.
    A diagonal triple (A, A, A) depends only on A's translation, so its
    children are tested once per distinct translation and the survivors
    placed by node index.  A level costs L^3 per distinct translation plus
    L^3 per surviving triple; a certified tree keeps no triple.
    """
    step, sched = level_intervals(tree, n), tree.schedule
    nodes, s = np.zeros((3, 0), np.int64), np.zeros(0, np.int64)
    for level in range(n):
        m, width = sched.M[level], sched.L[level]
        q = sched.Q(level + 1) if not line and sched.Q(level) < 3 else None
        classes, node_class = np.unique(tree.translations[level], return_inverse=True)
        digits = _children(sched, level, classes).astype(_int_dtype(3 * m), copy=False)  # residues stay below 3 M
        if len(s):
            t, *kid, s = _child_residues(s, *node_class[nodes], digits, m, q)
            nodes = nodes[:, t] * width + np.array(kid)
            keep = nodes[0] <= nodes[2]
            nodes, s = nodes[:, keep], s[keep]
        ids = np.arange(len(classes))
        c, i, j, k, s_diag = _child_residues(np.zeros(len(classes), np.int64), ids, ids, ids, digits, m, q)
        keep = (i <= k) & ~((i == j) & (j == k))  # (i, i, i) is one cell, no cross-cell triple
        if keep.any():
            c, kid, s_diag = c[keep], np.array([i, j, k])[:, keep], s_diag[keep]
            # place each class's survivors (contiguous, c ascending) below every node of that class
            counts = np.bincount(c, minlength=len(classes))
            per_node = counts[node_class]
            x = np.repeat(np.arange(len(node_class)), per_node)
            t = np.repeat(np.cumsum(counts)[node_class] - per_node, per_node)
            t += np.arange(len(x)) - np.repeat(np.cumsum(per_node) - per_node, per_node)
            nodes = np.concatenate((nodes, x * width + kid[:, t]), axis=1)
            s = np.concatenate((s, s_diag[t]))
    order = np.lexsort(nodes[::-1])  # by index triple, which is offset order
    return tuple(zip(*step.offsets[nodes[:, order]].tolist()))


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
