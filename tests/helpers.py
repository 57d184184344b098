"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's search strategies: covers are found by
enumerating every subset of the union by size, maximal families by sweeping
every subfamily of the complete family, and maximal pairs straight from the
definition (no single member can be added to either side) or by sweeping
every subfamily of one side for fixed points of the double star map. Slow
but unarguable at tiny scale.
"""

from __future__ import annotations

import random
from itertools import combinations

from xfam import Family, elements_of, is_cross_t_intersecting, mask_of


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
