"""Path-keyed reference trees: the slow oracle for `MeasureTree`'s level rows.

A tree is a dict from node paths (levels 0 to depth-1) to translations.
Every node's translation is drawn afresh from (seed, path), and levels are
walked path by path in lexicographic order, so nothing here shares the
library's per-level expansion.
"""

from typing import Dict, List, Optional, Tuple

from hypothesis import strategies as st

import cantorsalem as cs

NodePath = Tuple[int, ...]


def build_translations(schedule: cs.Schedule, seed: int, depth: int) -> Dict[NodePath, int]:
    """Translations for every node of levels 0..depth-1, keyed by path."""
    translations: Dict[NodePath, int] = {}
    frontier: List[NodePath] = [()]
    for level in range(depth):
        m = schedule.M[level]
        nxt: List[NodePath] = []
        for path in frontier:
            ell = cs.derive_translation(seed, path, m)
            translations[path] = ell
            if schedule.L[level] == 1:
                nxt.append(path + (ell,))
            else:
                nxt.extend(path + ((x + ell) % m,) for x in schedule.base_sets[level].elements)
        frontier = nxt
    return translations


def children(schedule: cs.Schedule, translations: Dict[NodePath, int], path: NodePath) -> Tuple[int, ...]:
    """Sorted surviving digits below a realized node."""
    level = len(path)
    ell = translations[path]
    if schedule.L[level] == 1:
        return (ell,)
    return tuple(sorted((x + ell) % schedule.M[level] for x in schedule.base_sets[level].elements))


def nodes_at_level(schedule: cs.Schedule, translations: Dict[NodePath, int], n: int) -> List[NodePath]:
    """All realized paths of length n, in lexicographic order."""
    nodes: List[NodePath] = [()]
    for _ in range(n):
        nodes = [p + (d,) for p in nodes for d in children(schedule, translations, p)]
    return nodes


def level_offsets(schedule: cs.Schedule, translations: Dict[NodePath, int], n: int) -> Tuple[int, ...]:
    """Sorted cell offsets of level n."""
    return tuple(sorted(cs.interval_of(p, schedule)[0] for p in nodes_at_level(schedule, translations, n)))


def path_translations(tree: cs.MeasureTree) -> Dict[NodePath, int]:
    """A tree's rows as a path-keyed dict, row i of a level taken as its
    i-th path in lexicographic order."""
    translations: Dict[NodePath, int] = {}
    frontier: List[NodePath] = [()]
    for row in tree.translations:
        if len(row) != len(frontier):
            raise ValueError("row length differs from the level's node count")
        translations.update(zip(frontier, row.tolist()))
        frontier = [p + (d,) for p in frontier for d in children(tree.schedule, translations, p)]
    return translations


def translations_doc(translations: Dict[NodePath, int]) -> Dict[str, int]:
    """The "translations" map of a saved tree: dotted path keys."""
    return {".".join(str(d) for d in p): ell for p, ell in sorted(translations.items())}


def load_translations(schedule: cs.Schedule, depth: int, doc: Dict[str, object]) -> Optional[Dict[NodePath, int]]:
    """Read a "translations" map path by path from the root; None when it is
    not exactly one realized tree's: a visited key is absent or holds
    anything but an int (not a bool) in [0, M), or a key is never visited."""
    translations: Dict[NodePath, int] = {}
    frontier: List[NodePath] = [()]
    for level in range(depth):
        nxt: List[NodePath] = []
        for path in frontier:
            key = ".".join(str(d) for d in path)
            ell = doc.get(key)
            if type(ell) is not int or not 0 <= ell < schedule.M[level]:
                return None
            translations[path] = ell
            nxt.extend(path + (d,) for d in children(schedule, translations, path))
        frontier = nxt
    if set(translations_doc(translations)) != set(doc):
        return None
    return translations


@st.composite
def custom_trees(draw, max_cells=256, max_depth=4):
    """Seeded trees over per-level bases 2..12 (odd and even Q mixed), with
    random child sets, single-child levels included; P_depth <= max_cells
    keeps the quadratic oracles cheap."""
    depth = draw(st.integers(1, max_depth))
    bases, counts, base_sets = [], [], []
    cells = 1
    for _ in range(depth):
        m = draw(st.integers(2, 12))
        size = draw(st.integers(1, max(1, min(m, max_cells // cells))))
        elements = draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size, unique=True))
        bases.append(m)
        counts.append(size)
        base_sets.append(cs.ResidueSet.from_elements(m, elements) if size > 1 else None)
        cells *= size
    sched = cs.Schedule("custom", tuple(bases), tuple(counts), tuple(base_sets))
    return cs.build_tree(sched, draw(st.integers(0, 2 ** 32)), depth)
