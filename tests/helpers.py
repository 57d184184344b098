"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's search strategies: covers are found by
enumerating every subset of the union by size, maximal families by sweeping
every subfamily of the complete family, and maximal pairs straight from the
definition (no single member can be added to either side) or by sweeping
every subfamily of one side for fixed points of the double star map. Slow
but unarguable at tiny scale.

`canonical_form_reference` is the canonical-form search in its plain shape
(sorted colour tuples as refinement signatures, every leaf encoded to bytes,
orbit pruning only), kept as the byte-for-byte oracle of `xfam.canon`.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb
from typing import Sequence

from xfam import Family, elements_of, is_cross_t_intersecting, mask_of

Cells = tuple[tuple[int, ...], ...]


def brute_covers(family: Family, t: int) -> tuple[int, tuple[int, ...]]:
    """Minimum cover size and all covers of that size, by subset enumeration
    over the union of the family."""
    union = elements_of(family.union_mask())
    for size in range(t, len(union) + 1):
        found = []
        for cand in combinations(union, size):
            cm = mask_of(cand)
            if all((cm & m).bit_count() >= t for m in family.members):
                found.append(cm)
        if found:
            return size, tuple(sorted(found))
    raise AssertionError("union always covers")


def brute_maximal_families(n: int, k: int, t: int) -> list[tuple[int, ...]]:
    """All maximal t-intersecting families via a sweep over every subfamily
    of the complete family; only usable while C(n, k) stays tiny."""
    verts = sorted(mask_of(c) for c in combinations(range(1, n + 1), k))
    V = len(verts)
    assert V <= 12, "oracle restricted to tiny instances"
    out = []
    for sub in range(1, 1 << V):
        members = [verts[i] for i in range(V) if (sub >> i) & 1]
        ok = all(
            (a & b).bit_count() >= t for i, a in enumerate(members) for b in members[i + 1 :]
        )
        if not ok:
            continue
        extendable = any(
            v not in members and all((v & m).bit_count() >= t for m in members) for v in verts
        )
        if not extendable:
            out.append(tuple(members))
    return sorted(out)


def brute_maximal_pairs(n: int, k1: int, k2: int, t: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All maximal cross-t-intersecting pairs straight from the definition:
    cross-intersecting, and no single set extends either side."""
    verts1 = sorted(mask_of(c) for c in combinations(range(1, n + 1), k1))
    verts2 = sorted(mask_of(c) for c in combinations(range(1, n + 1), k2))
    assert len(verts1) <= 6 and len(verts2) <= 6, "oracle restricted to tiny instances"
    out = []
    for s1 in range(1, 1 << len(verts1)):
        f = [verts1[i] for i in range(len(verts1)) if (s1 >> i) & 1]
        for s2 in range(1, 1 << len(verts2)):
            g = [verts2[j] for j in range(len(verts2)) if (s2 >> j) & 1]
            if not all((a & b).bit_count() >= t for a in f for b in g):
                continue
            if any(v not in f and all((v & b).bit_count() >= t for b in g) for v in verts1):
                continue
            if any(v not in g and all((v & a).bit_count() >= t for a in f) for v in verts2):
                continue
            out.append((tuple(f), tuple(g)))
    return sorted(out)


def _rows(verts: tuple[int, ...], other: tuple[int, ...], t: int) -> list[int]:
    """Row i: the bitmask of the indices j with |verts[i] & other[j]| >= t."""
    return [sum(1 << j for j, b in enumerate(other) if (a & b).bit_count() >= t) for a in verts]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def sweep_maximal_pairs(
    verts1: tuple[int, ...], verts2: tuple[int, ...], t: int, include_empty: bool = False
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (F, G) over verts1 x verts2 with G the star of F and F the star of
    G, as member tuples, ordered by the vertex mask of F. The sweep over
    every subset of side 1 is exhaustive: a maximal pair is determined by
    either side. Time 2^len(verts1)."""
    rows12, rows21 = _rows(verts1, verts2, t), _rows(verts2, verts1, t)
    v1, v2 = len(rows12), len(rows21)
    full1, full2 = (1 << v1) - 1, (1 << v2) - 1
    pairs = []
    for fmask in range(1 << v1):
        g = full2
        m = fmask
        while m:
            low = m & -m
            g &= rows12[low.bit_length() - 1]
            m ^= low
        f2 = full1
        m = g
        while m:
            low = m & -m
            f2 &= rows21[low.bit_length() - 1]
            m ^= low
        if f2 == fmask and (include_empty or (fmask and g)):
            pairs.append((tuple(verts1[i] for i in _bits(fmask)), tuple(verts2[j] for j in _bits(g))))
    return pairs


def random_family(rng: random.Random, n: int, k: int, max_members: int) -> Family:
    verts = [mask_of(c) for c in combinations(range(1, n + 1), k)]
    count = rng.randint(1, min(max_members, len(verts)))
    return Family.from_masks(n, k, rng.sample(verts, count))


def random_cross_pair(rng: random.Random, n: int, k1: int, k2: int, t: int, tries: int = 60):
    """A random nonempty cross-t-intersecting pair, or None."""
    verts2 = [mask_of(c) for c in combinations(range(1, n + 1), k2)]
    for _ in range(tries):
        f = random_family(rng, n, k1, 4)
        compatible = [v for v in verts2 if all((v & m).bit_count() >= t for m in f.members)]
        if not compatible:
            continue
        g = Family.from_masks(n, k2, rng.sample(compatible, rng.randint(1, min(3, len(compatible)))))
        assert is_cross_t_intersecting(f, g, t)
        return f, g
    return None


def _reference_refine(cells: Cells, fam_members: Sequence[tuple[int, ...]], elem_members: Sequence[list[list[int]]], n: int) -> Cells:
    while True:
        color = [0] * n
        for ci, cell in enumerate(cells):
            for e in cell:
                color[e] = ci
        sigs: dict[int, tuple] = {}
        # profile of a member = sorted colors of its elements
        profiles = []
        for fi, members in enumerate(fam_members):
            profiles.append([tuple(sorted(color[e] for e in mem)) for mem in members])
        for ci, cell in enumerate(cells):
            if len(cell) == 1:
                continue
            for e in cell:
                sig = tuple(
                    tuple(sorted(profiles[fi][mi] for mi in elem_members[fi][e]))
                    for fi in range(len(fam_members))
                )
                sigs[e] = sig
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
        if not changed:
            return cells


class ReferenceCanonicalizer:
    def __init__(self, n: int, families: Sequence[tuple[int, ...]]):
        self.n = n
        # members as element-index tuples (0-based) for refinement speed
        self.fam_members = [
            [tuple(e - 1 for e in elements_of(m)) for m in fam] for fam in families
        ]
        self.elem_members: list[list[list[int]]] = []
        for members in self.fam_members:
            by_elem: list[list[int]] = [[] for _ in range(n)]
            for mi, mem in enumerate(members):
                for e in mem:
                    by_elem[e].append(mi)
            self.elem_members.append(by_elem)
        self.best: bytes | None = None
        self.best_pos: list[int] | None = None
        self.autos: list[tuple[int, ...]] = []

    def run(self) -> bytes:
        self._search(tuple((tuple(range(self.n)),)), [])
        assert self.best is not None
        return self.best

    def _encode(self, pos: list[int]) -> bytes:
        chunks = []
        for members in self.fam_members:
            masks = sorted(sum(1 << pos[e] for e in mem) for mem in members)
            chunks.append(b"".join(m.to_bytes(8, "big") for m in masks))
        return b"|".join(chunks)

    def _leaf(self, cells: Cells) -> None:
        pos = [0] * self.n
        for i, cell in enumerate(cells):
            pos[cell[0]] = i
        enc = self._encode(pos)
        if self.best is None or enc < self.best:
            self.best = enc
            self.best_pos = pos
        elif enc == self.best:
            inv_best = [0] * self.n
            for e, p in enumerate(self.best_pos):  # type: ignore[arg-type]
                inv_best[p] = e
            alpha = tuple(inv_best[pos[e]] for e in range(self.n))
            if any(alpha[e] != e for e in range(self.n)) and alpha not in self.autos:
                self.autos.append(alpha)

    def _search(self, cells: Cells, fixed: list[int]) -> None:
        cells = _reference_refine(cells, self.fam_members, self.elem_members, self.n)
        target = None
        for ci, cell in enumerate(cells):
            if len(cell) > 1:
                target = ci
                break
        if target is None:
            self._leaf(cells)
            return
        cell = cells[target]
        # orbit pruning: skip elements reachable from an already-explored
        # branch by an automorphism fixing the individualized prefix
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def refresh_orbits() -> None:
            for g in self.autos:
                if all(g[f] == f for f in fixed):
                    for e in range(self.n):
                        ra, rb = find(e), find(g[e])
                        if ra != rb:
                            parent[ra] = rb

        done: list[int] = []
        for e in cell:
            refresh_orbits()
            if any(find(e) == find(d) for d in done):
                continue
            rest = tuple(x for x in cell if x != e)
            child = cells[:target] + ((e,), rest) + cells[target + 1 :]
            self._search(child, fixed + [e])
            done.append(e)


def _reference_header(n: int, families: Sequence[Family]) -> bytes:
    parts = [f"n={n}"] + [f"k={f.k},m={len(f.members)}" for f in families]
    return (";".join(parts) + ":").encode()


def canonical_form_reference(families: Sequence[Family], n: int | None = None) -> bytes:
    """The canonical form as the plain individualization-refinement search
    computes it: sorted colour tuples as refinement signatures, every leaf
    encoded to bytes, orbit pruning only. `xfam.canonical_form_tuple` must
    return exactly these bytes."""
    if not families:
        raise ValueError("need at least one family")
    if n is None:
        n = families[0].n
    if any(f.n != n for f in families):
        raise ValueError("families live over different ground sets")
    head = _reference_header(n, families)
    if all(len(f.members) in (0, comb(n, f.k)) for f in families):
        # empty and complete families are fixed by every permutation
        pos = list(range(n))
        engine = ReferenceCanonicalizer(n, [f.members for f in families])
        return head + engine._encode(pos)
    engine = ReferenceCanonicalizer(n, [f.members for f in families])
    return head + engine.run()
