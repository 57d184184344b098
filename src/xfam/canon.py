"""Canonical forms for families under relabeling of the ground set.

Two families (or tuples of families, relabeled simultaneously) are isomorphic
iff their canonical byte strings are equal. The canonicalizer runs the usual
individualization-refinement search: elements are partitioned by iterated
degree refinement (signature = the multiset of color profiles of the members
through the element, per family, compared within the element's own cell),
the first non-singleton cell is split on each of its elements in turn, and
the minimum leaf wins. Cell order is derived from signature values only,
never from element indices, so the result is invariant under every
permutation of [n].

Signatures and leaves are integers. All members of a family have k elements,
so the sorted color tuple of a member is represented by the sum of its
elements' weights -(k+1)^(n-1-color): the count of each color is one
base-(k+1) digit, no digit carries, and the sums order exactly as the tuples
do. An element's signature is the sorted tuple of these sums. A leaf is
compared as the tuple of each family's sorted member masks, and only the
winner is encoded to bytes (8-byte big-endian masks, families joined by
b"|"), which order the same way because member counts are fixed within one
input.

Leaves with equal keys certify automorphisms; their orbits prune sibling
branches, which collapses the factorial stalls of highly symmetric families
(anchored stars, near-complete families) to a handful of descents. Such an
automorphism maps the new leaf's path onto the best leaf's path and fixes
their common prefix, so, as in nauty, the search backjumps to that prefix:
every leaf below the abandoned nodes is the image of a leaf already seen.

`canonical_form_tuple` also keeps a bounded memo of the forms that complete
searches proved, and a search ends at the first leaf whose form is in it.

None of this changes the bytes: they are those of the plain search that
sorts color tuples and encodes every leaf, which the tests keep as the
oracle. The memo is exact too. A leaf is the input relabeled, so a leaf
equal to the proved minimum leaf of an earlier input X (under the same
header: n, and k and m per family) shows that the two inputs are
isomorphic, and isomorphic inputs have the same form, X's. Only the
winner of a search that ran to its end is stored, never a first or
best-so-far leaf. A stored form is the minimum of every leaf of the
current input, so only leaves that improve on the best so far are looked
up. Incremental cell splitting or invariant-based leaf pruning would
change the cell order or which leaf is minimal, and so the bytes.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Sequence

from .core import Family

Cells = tuple[tuple[int, ...], ...]

# the memo holds at most this many member masks (8 bytes each), oldest
# forms evicted first
_MEMO_MASKS = 1 << 16


class FormCacheInfo(NamedTuple):
    hits: int
    misses: int
    forms: int
    masks: int
    max_masks: int


class _FormMemo:
    """Canonical forms proved by complete searches, oldest first, with the
    number of member masks each holds; `hits` and `misses` count the
    searches that did and did not end at a stored form."""

    def __init__(self, max_masks: int):
        self.max_masks = max_masks
        self.forms: dict[bytes, int] = {}
        self.masks = self.hits = self.misses = 0

    def store(self, form: bytes, masks: int) -> None:
        self.misses += 1
        if masks > self.max_masks:
            return  # it would evict every stored form, then itself
        self.forms[form] = masks
        self.masks += masks
        while self.masks > self.max_masks:
            self.masks -= self.forms.pop(next(iter(self.forms)))

    def info(self) -> FormCacheInfo:
        return FormCacheInfo(self.hits, self.misses, len(self.forms), self.masks, self.max_masks)


_FORMS = _FormMemo(_MEMO_MASKS)


def form_cache_info() -> FormCacheInfo:
    """Hits, misses, forms and member masks stored, and the mask bound, of
    the memo behind `canonical_form_tuple` (read-only, like
    `functools.lru_cache`'s `cache_info`)."""
    return _FORMS.info()


class _Canonicalizer:
    """One individualization-refinement search over a tuple of families.

    With a `memo`, the search ends at the first leaf whose form (`head`
    plus the leaf's bytes) the memo holds, and a search that runs to its end
    stores its winner there; without one it is the plain search. `nodes`
    and `leaves` count the search nodes and leaves visited."""

    def __init__(
        self, n: int, families: Sequence[tuple[int, ...]], memo: _FormMemo | None = None, head: bytes = b""
    ):
        self.n = n
        self.memo, self.head = memo, head
        # members as element-index tuples (0-based) for refinement speed,
        # and per element the indices of the members through it
        self.fam_members: list[list[tuple[int, ...]]] = []
        self.elem_members: list[list[list[int]]] = []
        for fam in families:
            members = []
            by_elem: list[list[int]] = [[] for _ in range(n)]
            for mi, m in enumerate(fam):
                mem = []
                while m:
                    low = m & -m
                    e = low.bit_length() - 1
                    mem.append(e)
                    by_elem[e].append(mi)
                    m ^= low
                members.append(tuple(mem))
            self.fam_members.append(members)
            self.elem_members.append(by_elem)
        # color c weighs -(k+1)^(n-1-c) in a family of k-sets (module docstring)
        self.weights = [
            [-((len(members[0]) + 1) ** (n - 1 - c)) if members else 0 for c in range(n)]
            for members in self.fam_members
        ]
        self.best: tuple | None = None
        self.best_path: list[int] = []
        self.best_pos: list[int] = []
        self.autos: list[tuple[int, ...]] = []
        self.nodes = 0
        self.leaves = 0

    def run(self) -> bytes:
        """The canonical leaf's bytes (without the header)."""
        hit = self._search(tuple((tuple(range(self.n)),)), []) < 0
        assert self.best is not None
        leaf = _encode(self.best)
        if self.memo is not None:
            if hit:
                self.memo.hits += 1
            else:
                self.memo.store(self.head + leaf, sum(map(len, self.best)))
        return leaf

    def _refine(self, cells: Cells) -> Cells:
        """Iterated degree refinement to the fixpoint: an element's signature
        is the sorted multiset of its members' color profiles, per family,
        and each split cell is replaced by its groups in signature order."""
        if len(cells) == self.n:
            return cells
        color = [0] * self.n
        families = list(zip(self.fam_members, self.elem_members, self.weights))
        while True:
            for ci, cell in enumerate(cells):
                for e in cell:
                    color[e] = ci
            active = [e for cell in cells if len(cell) > 1 for e in cell]
            per_family = []
            for members, by_elem, weight in families:
                w = [weight[c] for c in color]
                profile = [sum(map(w.__getitem__, mem)) for mem in members]
                per_family.append([tuple(sorted(map(profile.__getitem__, by_elem[e]))) for e in active])
            # an element's signature: its sorted profile tuple in each family
            sigs = dict(zip(active, zip(*per_family)))
            new_cells: list[tuple[int, ...]] = []
            changed = False
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                groups: dict[tuple, list[int]] = {}
                for e in cell:
                    groups.setdefault(sigs[e], []).append(e)
                if len(groups) == 1:
                    new_cells.append(cell)
                    continue
                changed = True
                for sig in sorted(groups):
                    new_cells.append(tuple(groups[sig]))
            cells = tuple(new_cells)
            if not changed or len(cells) == self.n:
                return cells

    def _key(self, pos: list[int]) -> tuple:
        """Leaf key: per family, the sorted member masks with element e moved
        to bit pos[e]."""
        bit = [1 << p for p in pos]
        return tuple(
            tuple(sorted(sum(map(bit.__getitem__, mem)) for mem in members))
            for members in self.fam_members
        )

    def _leaf(self, cells: Cells, path: list[int]) -> int:
        """Compare the leaf with the best one; return the depth to resume at,
        or -1 when the leaf's form is in the memo."""
        self.leaves += 1
        pos = [0] * self.n
        for i, cell in enumerate(cells):
            pos[cell[0]] = i
        key = self._key(pos)
        if self.best is None or key < self.best:
            self.best, self.best_pos, self.best_path = key, pos, path
            if self.memo is not None and self.head + _encode(key) in self.memo.forms:
                return -1  # a proved minimum: end the whole search
            return len(path)
        if key > self.best:
            return len(path)
        inv_best = [0] * self.n
        for e, p in enumerate(self.best_pos):
            inv_best[p] = e
        alpha = tuple(inv_best[pos[e]] for e in range(self.n))
        if alpha not in self.autos:
            self.autos.append(alpha)
        # alpha maps this leaf's path onto the best one's and fixes their
        # common prefix, so every leaf below the branch point is the image of
        # a leaf already seen: resume at the branch point
        common = 0
        for a, b in zip(path, self.best_path):
            if a != b:
                break
            common += 1
        return common

    def _search(self, cells: Cells, fixed: list[int]) -> int:
        """Search below the node reached by individualizing `fixed`; return
        the depth to resume at (below len(fixed) abandons this node, and -1
        ends the search)."""
        self.nodes += 1
        cells = self._refine(cells)
        if len(cells) == self.n:
            return self._leaf(cells, fixed)
        for target, cell in enumerate(cells):
            if len(cell) > 1:
                break
        depth = len(fixed)
        # orbit pruning: skip elements reachable from an already-explored
        # branch by an automorphism fixing the individualized prefix; the
        # orbits (union-find) grow only when the search certified new ones
        parent: list[int] | None = None
        applied = 0
        done: list[int] = []
        for e in cell:
            if applied < len(self.autos):
                for g in self.autos[applied:]:
                    if all(g[f] == f for f in fixed):
                        if parent is None:
                            parent = list(range(self.n))
                        for x, y in enumerate(g):
                            ra, rb = _find(parent, x), _find(parent, y)
                            if ra != rb:
                                parent[ra] = rb
                applied = len(self.autos)
            if parent is not None:
                root = _find(parent, e)
                if any(_find(parent, d) == root for d in done):
                    continue
            rest = tuple(x for x in cell if x != e)
            child = cells[:target] + ((e,), rest) + cells[target + 1 :]
            resume = self._search(child, fixed + [e])
            if resume < depth:
                return resume
            done.append(e)
        return depth


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _encode(key: tuple) -> bytes:
    """Leaf bytes: each family's sorted masks as 8-byte big-endian words,
    families joined by b"|". Member counts are fixed within one input, so
    byte order equals the order of the int-tuple keys."""
    return b"|".join(b"".join(m.to_bytes(8, "big") for m in masks) for masks in key)


def _header(n: int, families: Sequence[Family]) -> bytes:
    parts = [f"n={n}"] + [f"k={f.k},m={len(f.members)}" for f in families]
    return (";".join(parts) + ":").encode()


def canonical_form_tuple(families: Sequence[Family]) -> bytes:
    """Relabeling-invariant encoding of an ordered tuple of families over a
    common ground set (one permutation applied to all of them)."""
    if not families:
        raise ValueError("need at least one family")
    n = families[0].n
    if any(f.n != n for f in families):
        raise ValueError("families live over different ground sets")
    head = _header(n, families)
    if all(len(f.members) in (0, comb(n, f.k)) for f in families):
        # empty and complete families are fixed by every permutation
        return head + _encode(tuple(f.members for f in families))
    return head + _Canonicalizer(n, [f.members for f in families], _FORMS, head).run()


def canonical_form(family: Family) -> bytes:
    """Canonical byte string: equal for two families iff some permutation of
    [n] maps one onto the other."""
    return canonical_form_tuple([family])
