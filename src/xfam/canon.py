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

Signatures and leaves are integers, and every round is computed by
accumulating over the incidence lists (members through each element, and
elements of each member). All members of a family have k elements, so the
sorted color tuple of a member is represented by its profile, the sum of its
elements' weights -(k+1)^(n-1-color): the count of each color is one
base-(k+1) digit, no digit carries, and the profiles order exactly as the
tuples do. An element's signature is the sum, over the members through it,
of -B^(R-1-r) for the rank r of the member's profile among the round's R
distinct ones, with B one more than the largest member count. Every
element of a cell has the same degree, below B, so the count of each rank
is again one carry-free digit, and the signatures order exactly as the
sorted tuples of profiles. For a tuple of families the signature is the
tuple of these sums. The first round is the exception: at the root every
profile is equal, so the sorted tuples order by their lengths, and the unit
partition is split by the tuple of per-family degrees directly. Every later
partition refines that one, which is why degrees are equal within a cell.
A leaf is compared as the tuple of each family's sorted member masks, built
by setting bit i in the members through the element of cell i. Only a leaf
that improves on the best so far is encoded to bytes (8-byte big-endian
masks, families joined by b"|"), once, for the memo lookup and as the
result; the bytes order as the keys do because member counts are fixed
within one input.

Leaves with equal keys certify automorphisms; their orbits prune sibling
branches, which collapses the factorial stalls of highly symmetric families
(anchored stars, near-complete families) to a handful of descents. Such an
automorphism maps the new leaf's path onto the best leaf's path and fixes
their common prefix, so, as in nauty, the search backjumps to that prefix:
every leaf below the abandoned nodes is the image of a leaf already seen.

`canonical_form_tuple` also keeps a bounded memo. It maps the forms that
complete searches proved to themselves, and root keys to their input's
form. A root key is the input relabeled after the root refinement: the
element at position i of the root cells, taken in cell order and each
cell in its own order, goes to bit i, encoded as a leaf is, after the
header. A search whose root key is stored ends at its root; otherwise it
ends at the first leaf whose bytes are stored, and once it has its form it
stores its root key (a discrete root is its own leaf and stores none).
Roots refine alike up to ties inside a cell, so a class gets a few keys,
and any later copy with one of them costs one refinement.

None of this changes the bytes: they are those of the plain search that
sorts color tuples and encodes every leaf, which the tests keep as the
oracle. The memo is exact too. A leaf and a root key are both the input
relabeled, so a leaf or key equal to a stored entry of an earlier input X
(under the same header: n, and k and m per family) shows that the two
inputs are isomorphic, and isomorphic inputs have the same form, X's.
Only the winner of a search that ran to its end is stored as a form,
never a first or best-so-far leaf. The input's form is the minimum of its
leaves, so only leaves that improve on the best so far are looked up.
Forms and root keys share one bound on the member masks they hold (a key
holds as many as its form), and the oldest entries are evicted first.
Incremental cell splitting or invariant-based leaf pruning would change
the cell order or which leaf is minimal, and so the bytes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import comb
from struct import pack
from typing import NamedTuple, Sequence

from .core import Family

Cells = tuple[tuple[int, ...], ...]

# the memo holds at most this many member masks (8 bytes each) over its
# forms and root keys, oldest entries evicted first
_MEMO_MASKS = 1 << 16


class FormCacheInfo(NamedTuple):
    hits: int
    misses: int
    forms: int
    masks: int
    max_masks: int
    aliases: int


class _FormMemo:
    """Canonical forms proved by complete searches, each mapped to itself,
    and root keys (module docstring) mapped to their input's form, oldest
    first, with the number of member masks each key holds. `hits` and
    `misses` count the searches that did and did not end at a stored entry,
    and `root_hits` those that ended at their root."""

    def __init__(self, max_masks: int):
        self.max_masks = max_masks
        self.entries: dict[bytes, tuple[bytes, int]] = {}
        self.masks = self.hits = self.misses = self.root_hits = 0

    def store(self, key: bytes, form: bytes, masks: int) -> None:
        if masks > self.max_masks or key in self.entries:
            return  # stored already, or it would evict every entry, then itself
        self.entries[key] = form, masks
        self.masks += masks
        while self.masks > self.max_masks:
            self.masks -= self.entries.pop(next(iter(self.entries)))[1]

    def info(self) -> FormCacheInfo:
        aliases = sum(key != form for key, (form, _) in self.entries.items())
        forms = len(self.entries) - aliases
        return FormCacheInfo(self.hits, self.misses, forms, self.masks, self.max_masks, aliases)


_FORMS = _FormMemo(_MEMO_MASKS)

# the bit positions of each byte value
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def form_cache_info() -> FormCacheInfo:
    """Hits, misses, forms and member masks stored, the mask bound, and the
    root keys stored, of the memo behind `canonical_form_tuple` (read-only,
    like `functools.lru_cache`'s `cache_info`)."""
    return _FORMS.info()


class _Canonicalizer:
    """One individualization-refinement search over a tuple of families.

    With a `memo`, the search ends at its root when the memo holds the root
    key (`head` plus the bytes of the input relabeled in root cell order),
    or else at the first leaf whose form (`head` plus the leaf's bytes) the
    memo holds. A search that runs to its end stores its winner there, and
    one that does not end at its root stores its root key; without a memo it
    is the plain search. `nodes` and `leaves` count the search nodes and
    leaves visited."""

    def __init__(
        self, n: int, families: Sequence[tuple[int, ...]], memo: _FormMemo | None = None, head: bytes = b""
    ):
        self.n = n
        self.memo, self.head = memo, head
        # per family: its members as element lists (0-based), per element the
        # indices of the members through it, and the color weights
        self.families: list[tuple[Sequence[Sequence[int]], list[list[int]], list[int]]] = []
        for fam in families:
            members = [_BYTE_BITS[m] if m < 256 else _elements(m) for m in fam]
            by_elem: list[list[int]] = [[] for _ in range(n)]
            for mi, mem in enumerate(members):
                for e in mem:
                    by_elem[e].append(mi)
            self.families.append((members, by_elem, _color_weights(n, len(members[0]) if members else 0)))
        # the signature base B, above every degree, and the weights -B^r for
        # r = 0, 1, ..., extended as rounds need them
        self.base = max(map(len, families)) + 1
        self.powers = [-1]
        self.best: tuple | None = None
        self.leaf = b""
        self.best_cells: Cells = ()
        self.best_path: list[int] = []
        self.root_key = b""
        self.autos: list[tuple[int, ...]] = []
        self.nodes = 0
        self.leaves = 0

    def run(self) -> bytes:
        """The canonical leaf's bytes (without the header)."""
        hit = self._search(self._degree_cells(), []) < 0
        memo = self.memo
        if memo is not None:
            form = self.head + self.leaf
            masks = sum(len(f[0]) for f in self.families)
            if hit:
                memo.hits += 1
            else:
                memo.misses += 1
                memo.store(form, form, masks)
            if self.root_key:
                memo.store(self.root_key, form, masks)
        return self.leaf

    def _degree_cells(self) -> Cells:
        """The first refinement round of the unit partition: every profile is
        equal, so the elements split by their tuple of per-family degrees."""
        degrees = [list(map(len, by_elem)) for _, by_elem, _ in self.families]
        return _split((tuple(range(self.n)),), _keyed(degrees))

    def _refine(self, cells: Cells) -> Cells:
        """Iterated refinement to the fixpoint: each cell is split by the
        elements' integer signatures, per family (module docstring)."""
        n, base, powers = self.n, self.base, self.powers
        while len(cells) < n:
            sigs = []
            for members, by_elem, weight in self.families:
                # the elements of cell c have color c
                profile = [0] * len(members)
                for cell, w in zip(cells, weight):
                    for e in cell:
                        for mi in by_elem[e]:
                            profile[mi] += w
                rank_weight = _rank_weights(profile, base, powers)
                sig = [0] * n
                for mem, p in zip(members, profile):
                    w = rank_weight[p]
                    for e in mem:
                        sig[e] += w
                sigs.append(sig)
            split = _split(cells, _keyed(sigs))
            if len(split) == len(cells):
                break
            cells = split
        return cells

    def _relabeled(self, order: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """Per family, the sorted member masks of the input relabeled so that
        element order[i] is at bit i."""
        keys = []
        for members, by_elem, _ in self.families:
            masks = [0] * len(members)
            for i, e in enumerate(order):
                bit = 1 << i
                for mi in by_elem[e]:
                    masks[mi] |= bit
            masks.sort()
            keys.append(tuple(masks))
        return tuple(keys)

    def _leaf(self, cells: Cells, path: list[int]) -> int:
        """Compare the leaf with the best one; return the depth to resume at,
        or -1 when the memo holds the leaf's bytes. The leaf's key is, per
        family, the sorted member masks with the element of cell i at bit i."""
        self.leaves += 1
        key = self._relabeled([e for (e,) in cells])
        if self.best is None or key < self.best:
            self.best, self.best_cells, self.best_path = key, cells, path
            self.leaf = _encode(key)
            if self.memo is not None:
                hit = self.memo.entries.get(self.head + self.leaf)
                if hit is not None:
                    self.leaf = hit[0][len(self.head) :]
                    return -1  # the input's form is known: end the whole search
            return len(path)
        if key > self.best:
            return len(path)
        alpha = [0] * self.n
        for (e,), (b,) in zip(cells, self.best_cells):
            alpha[e] = b
        auto = tuple(alpha)
        if auto not in self.autos:
            self.autos.append(auto)
        # the automorphism maps this leaf's path onto the best one's and fixes
        # their common prefix, so every leaf below the branch point is the
        # image of a leaf already seen: resume at the branch point
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
        if not fixed and self.memo is not None:
            # the root key: the input relabeled in root cell order, ties in
            # cell order (a discrete root is the leaf, looked up there)
            self.root_key = self.head + _encode(self._relabeled([e for cell in cells for e in cell]))
            hit = self.memo.entries.get(self.root_key)
            if hit is not None:
                self.memo.root_hits += 1
                self.leaf = hit[0][len(self.head) :]
                return -1
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
        for i, e in enumerate(cell):
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
            child = cells[:target] + ((e,), cell[:i] + cell[i + 1 :]) + cells[target + 1 :]
            resume = self._search(child, fixed + [e])
            if resume < depth:
                return resume
            done.append(e)
        return depth


def _rank_weights(values: list[int], base: int, powers: list[int]) -> dict[int, int]:
    """Each distinct value's weight -base^(R-1-r), r its rank among the R
    distinct values; `powers` holds -base^0, -base^1, ... and grows as
    needed."""
    ranks = sorted(set(values), reverse=True)
    while len(powers) < len(ranks):
        powers.append(powers[-1] * base)
    return dict(zip(ranks, powers))


def _keyed(values: list[list[int]]):
    """Element e's key: its value in the one list, or its tuple of values."""
    return (values[0] if len(values) == 1 else list(zip(*values))).__getitem__


def _split(cells: Cells, key) -> Cells:
    """Each cell's elements grouped by key, the groups in increasing key
    order and the elements of a group in cell order."""
    split: list[tuple[int, ...]] = []
    for cell in cells:
        if len(cell) > 1:
            ordered = sorted(cell, key=key)
            if key(ordered[0]) != key(ordered[-1]):
                split += (tuple(group) for _, group in groupby(ordered, key))
                continue
        split.append(cell)
    return tuple(split)


def _elements(m: int) -> Sequence[int]:
    """The bit positions of mask m, in increasing order, a byte at a time."""
    out: list[int] = []
    base = 0
    while m:
        out += [base + i for i in _BYTE_BITS[m & 255]]
        m >>= 8
        base += 8
    return out


@lru_cache(maxsize=None)  # n <= 64 bounds it
def _color_weights(n: int, k: int) -> list[int]:
    """Color c weighs -(k+1)^(n-1-c) in a family of k-sets (module docstring)."""
    return [-((k + 1) ** (n - 1 - c)) for c in range(n)]


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _encode(key: tuple) -> bytes:
    """Leaf bytes: each family's sorted masks as 8-byte big-endian words,
    families joined by b"|". Member counts are fixed within one input, so
    byte order equals the order of the int-tuple keys."""
    return b"|".join(pack(f">{len(masks)}Q", *masks) for masks in key)


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
