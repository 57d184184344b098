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

Signatures are integers, and every round is computed by accumulating over
the incidence lists (members through each element, and elements of each
member). All members of a family have k elements, so the sorted color tuple
of a member is represented by its profile, the sum of its elements' weights
-(k+1)^(n-1-color): the count of each color is one base-(k+1) digit, no
digit carries, and the profiles order exactly as the tuples do. An
element's signature is the sum, over the members through it, of
-B^(R-1-r) for the rank r of the member's profile among the round's R
distinct ones, with B one more than the largest member count. Every
element of a cell has the same degree, below B, so the count of each rank
is again one carry-free digit, and the signatures order exactly as the
sorted tuples of profiles. For a tuple of families the signature is the
tuple of these sums. The first round is the exception: at the root every
profile is equal, so the sorted tuples order by their lengths, and the unit
partition is split by the tuple of per-family degrees directly. Every later
partition refines that one, which is why degrees are equal within a cell.
A leaf is the input relabeled with the element of cell i at bit i, as
bytes: each family's sorted member masks, 8-byte big-endian, families
joined by b"|". Leaves are compared as these bytes, which order as the
tuples of masks do because member counts are fixed within one input.

Leaves with equal keys certify automorphisms; their orbits prune sibling
branches, which collapses the factorial stalls of highly symmetric families
(anchored stars, near-complete families) to a handful of descents. Such an
automorphism maps the new leaf's path onto the best leaf's path and fixes
their common prefix, so, as in nauty, the search backjumps to that prefix:
every leaf below the abandoned nodes is the image of a leaf already seen.

`canonical_form_tuple` also keeps a bounded memo. It maps the forms that
complete searches proved to themselves, and first keys to their input's
form. A first key is the input relabeled in the order of its first
partition, the degree cells: the element at position i of the cells goes
to bit i, encoded as a leaf is, after the header. It is looked up in
`canonical_form_tuple`, before any search state exists: one pass over the
masks gives the incidence lists, a stable sort by degree tuple the order,
and the key is packed from them. A hit builds no `_Canonicalizer`. A
discrete first partition is the only leaf, so its key is its form. Any
other miss hands the incidence lists and cells to a search, which ends at
the first leaf whose bytes are stored; its form is stored under its first
key. A class gets one key per order of its degree cells among the copies
searched, and a later copy with one of them costs no refinement at all.

None of this changes the bytes: they are those of the plain search that
sorts color tuples and encodes every leaf, which the tests keep as the
oracle. The memo is exact too: a leaf or first key is the input relabeled,
so one equal to a stored entry of an earlier input X (under the same
header: n, and k and m per family) proves the input isomorphic to X, with
X's form. Only the winner of a finished search is stored as a form, and
only leaves that improve on the best so far are looked up. Forms and keys
share one bound on the member masks they hold (a key holds as many as its
form), oldest evicted first. Incremental cell splitting or invariant-based
leaf pruning would change the cell order or which leaf is minimal, and so
the bytes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import comb
from struct import pack
from typing import NamedTuple, Sequence

from .core import Family

Cells = tuple[tuple[int, ...], ...]
Masks = Sequence[Sequence[int]]
Incidence = list[list[list[int]]]  # per family and element, the members through it

# the memo holds at most this many member masks (8 bytes each) over its
# forms and keys, oldest entries evicted first
_MEMO_MASKS = 1 << 16


class FormCacheInfo(NamedTuple):
    hits: int
    misses: int
    forms: int
    masks: int
    max_masks: int
    aliases: int
    first_hits: int


class _FormMemo:
    """Canonical forms proved by complete searches, each mapped to itself,
    and first keys (module docstring) mapped to their input's form, oldest
    first, with the number of member masks each key holds. `hits` and
    `misses` count the inputs that did and did not end at a stored entry,
    and `first_hits` those that ended at their first key."""

    def __init__(self, max_masks: int):
        self.max_masks = max_masks
        self.entries: dict[bytes, tuple[bytes, int]] = {}
        self.masks = self.hits = self.misses = self.first_hits = 0

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
        return FormCacheInfo(self.hits, self.misses, forms, self.masks, self.max_masks, aliases, self.first_hits)


_FORMS = _FormMemo(_MEMO_MASKS)

# the bit positions of each byte value
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def form_cache_info() -> FormCacheInfo:
    """Hits, misses, forms and member masks stored, the mask bound, first
    keys stored (`aliases`) and first-key hits of the memo behind
    `canonical_form_tuple` (read-only, like `lru_cache`'s `cache_info`)."""
    return _FORMS.info()


class _Canonicalizer:
    """One individualization-refinement search over a tuple of families
    (member masks), from what `_first_partition` found on them. With a
    `memo`, it ends at the first leaf whose form (`head` plus the leaf's
    bytes) the memo holds, and `hit` says whether it did; without one it is
    the plain search. `nodes` and `leaves` count the nodes and leaves."""

    def __init__(self, n: int, families: Masks, first: tuple, memo: _FormMemo | None = None, head: bytes = b""):
        self.n, self.masks, self.memo, self.head = n, families, memo, head
        self.by_elems, degrees, order = first
        # the first partition: the elements in their degree order, grouped
        self.cells = tuple(tuple(group) for _, group in groupby(order, degrees.__getitem__))
        # per family: its members as element lists (0-based), per element the
        # indices of the members through it, and the color weights
        self.families: list[tuple[Sequence[Sequence[int]], list[list[int]], list[int]]] = []
        for fam, by_elem in zip(families, self.by_elems):
            members = [_BYTE_BITS[m] if m < 256 else _elements(m) for m in fam]
            self.families.append((members, by_elem, _color_weights(n, len(members[0]) if members else 0)))
        # the signature base B, above every degree, and the weights -B^r for
        # r = 0, 1, ..., extended as rounds need them
        self.base = max(map(len, families)) + 1
        self.powers = [-1]
        self.leaf = b""
        self.best_cells: Cells = ()
        self.best_path: list[int] = []
        self.autos: list[tuple[int, ...]] = []
        self.nodes = self.leaves = 0
        self.hit = False

    def run(self) -> bytes:
        """The canonical leaf's bytes (without the header)."""
        self.hit = self._search(self.cells, []) < 0
        return self.leaf

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
            split = _split(cells, _keyed(sigs).__getitem__)
            if len(split) == len(cells):
                break
            cells = split
        return cells

    def _leaf(self, cells: Cells, path: list[int]) -> int:
        """Compare the leaf with the best one; return the depth to resume at,
        or -1 when the memo holds the leaf's bytes."""
        self.leaves += 1
        leaf = _relabeled(self.masks, self.by_elems, [e for (e,) in cells])
        if not self.best_cells or leaf < self.leaf:
            self.leaf, self.best_cells, self.best_path = leaf, cells, path
            if self.memo is not None:
                hit = self.memo.entries.get(self.head + leaf)
                if hit is not None:
                    self.leaf = hit[0][len(self.head) :]
                    return -1  # the input's form is known: end the whole search
            return len(path)
        if leaf > self.leaf:
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


def _keyed(values: list[list[int]]) -> list:
    """Per element its key: its value in the one list, or its tuple of values."""
    return values[0] if len(values) == 1 else list(zip(*values))


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


def _encode(key: Sequence[Sequence[int]]) -> bytes:
    """Each family's sorted masks as 8-byte big-endian words, families
    joined by b"|"."""
    return b"|".join([pack(">%dQ" % len(masks), *masks) for masks in key])


def _first_partition(n: int, families: Masks) -> tuple[Incidence, list, list[int]]:
    """Per family, the indices of the members through each element, from
    one pass over the masks; per element, its tuple of per-family degrees
    (`_keyed`); and the elements sorted stably by it, the order of the
    first partition."""
    by_elems = []
    for fam in families:
        by_elem: list[list[int]] = [[] for _ in range(n)]
        mi = 0
        for m in fam:
            for e in _BYTE_BITS[m] if m < 256 else _elements(m):
                by_elem[e].append(mi)
            mi += 1
        by_elems.append(by_elem)
    degrees = _keyed([list(map(len, by_elem)) for by_elem in by_elems])
    return by_elems, degrees, sorted(range(n), key=degrees.__getitem__)


def _relabeled(families: Masks, by_elems: Incidence, order: Sequence[int]) -> bytes:
    """The input relabeled so that element order[i] is at bit i, encoded."""
    keys = []
    for fam, by_elem in zip(families, by_elems):
        masks = [0] * len(fam)
        bit = 1
        for e in order:
            for mi in by_elem[e]:
                masks[mi] |= bit
            bit <<= 1
        masks.sort()
        keys.append(masks)
    return _encode(keys)


def canonical_form_tuple(families: Sequence[Family]) -> bytes:
    """Relabeling-invariant encoding of an ordered tuple of families over a
    common ground set (one permutation applied to all of them)."""
    if not families:
        raise ValueError("need at least one family")
    n = families[0].n
    # one pass checks n, writes the header (n, then k and m per family), and
    # sees whether every family is empty or complete, fixed by every relabeling
    head, fixed = b"n=%d" % n, True
    for f in families:
        if f.n != n:
            raise ValueError("families live over different ground sets")
        head += b";k=%d,m=%d" % (f.k, len(f.members))
        fixed = fixed and (not f.members or len(f.members) == comb(n, f.k))
    head += b":"
    masks = [f.members for f in families]
    if fixed:
        return head + _encode(masks)
    # the first key, looked up before any search state (module docstring)
    first = by_elems, degrees, order = _first_partition(n, masks)
    key = head + _relabeled(masks, by_elems, order)
    discrete = len(set(degrees)) == n
    memo = _FORMS
    entry = memo.entries.get(key)
    if entry is not None:
        memo.hits += 1
        memo.first_hits += not discrete
        return entry[0]
    form, hit = key, False  # a discrete first partition is the only leaf
    if not discrete:
        search = _Canonicalizer(n, masks, first, memo, head)
        form, hit = head + search.run(), search.hit
    size = sum(map(len, masks))
    if hit:
        memo.hits += 1
    else:
        memo.misses += 1
        memo.store(form, form, size)
    memo.store(key, form, size)
    return form


def canonical_form(family: Family) -> bytes:
    """Canonical byte string: equal for two families iff some permutation of
    [n] maps one onto the other."""
    return canonical_form_tuple([family])
