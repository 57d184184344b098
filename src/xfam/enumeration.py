"""Exhaustive desk-scale enumeration of maximal families and pairs.

Maximal t-intersecting families are the maximal cliques of the intersection
graph on all k-subsets (edges between t-intersecting pairs), found by
pivoting Bron-Kerbosch over bitset rows. Those with covering number t+1, and
their minimum covers, are read off the clique bitmasks: one AND per
candidate cover against a shared row of the k-subsets it covers. The same
Bron-Kerbosch walk lists the residual tuples of `classify`: the maximal
cliques of the coloured graph on the pairs (i, R), with (i, R) ~ (j, R')
iff i = j or |R ∩ R'| >= t. Maximal cross-t-intersecting pairs are the fixed
points F = star(star(F)) of the double star map, i.e. the formal concepts of
the relation "meets in >= t elements" between k1- and k2-subsets.
Close-by-One (Kuznetsov 1993) lists each of them exactly once, in time
linear in their number. The product search walks the pairs by decreasing
|F| |G| and computes covering numbers only while a pair can still tie the
best product. Every enumeration is capped, by vertex count or clique count;
exceeding a cap is an error, never silent truncation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import reduce
from math import comb
from operator import or_
from typing import Sequence

from .canon import canonical_form_tuple
from .core import CoverStructure, Family, covering_number, full_mask, subsets, validate_params
from .formulas import n_threshold

VERTEX_CAP = 70
SUBSET_CAP = 22


@dataclass(frozen=True)
class IntersectionGraph:
    """All k-subsets of [n] with adjacency i~j iff |F_i ∩ F_j| >= t."""

    n: int
    k: int
    t: int
    vertices: tuple[int, ...]
    rows: tuple[int, ...]


def build_intersection_graph(n: int, k: int, t: int, vertex_cap: int = VERTEX_CAP) -> IntersectionGraph:
    total = comb(n, k)
    if total > vertex_cap:
        raise ValueError(f"C({n},{k}) = {total} exceeds the vertex cap {vertex_cap}")
    verts = subsets(full_mask(n), k).masks
    rows = tuple(row & ~(1 << i) for i, row in enumerate(_compat_rows(verts, verts, t)))
    return IntersectionGraph(n, k, t, verts, rows)


def _compat_rows(verts: tuple[int, ...], other: tuple[int, ...], t: int) -> list[int]:
    """Row i: the bitmask of the indices j with |verts[i] ∩ other[j]| >= t."""
    rows = []
    for a in verts:
        row = 0
        for j, b in enumerate(other):
            if (a & b).bit_count() >= t:
                row |= 1 << j
        rows.append(row)
    return rows


def _bits(mask: int):
    """Indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bron_kerbosch(rows: Sequence[int], nverts: int, budget: int | None = None) -> list[int]:
    """All maximal cliques as vertex bitmasks, with the max-degree pivot rule
    (pivot maximizes its candidate neighbourhood, ties to the lowest index).
    With a budget (the tuple kernel's TUPLE_BUDGET) the walk stops with an
    error as soon as it finds more cliques than that. Each recursion level
    adds one vertex, so the recursion limit is raised by nverts for the walk."""
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            if len(out) == budget:
                raise ValueError(f"more than TUPLE_BUDGET = {budget:,} maximal cliques")
            out.append(r)
            return
        px = p | x
        pivot, best = -1, -1
        m = px
        while m:
            low = m & -m
            u = low.bit_length() - 1
            d = (rows[u] & p).bit_count()
            if d > best:
                pivot, best = u, d
            m ^= low
        cand = p & ~rows[pivot]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            expand(r | low, p & rows[v], x & rows[v])
            p &= ~low
            x |= low
            cand ^= low

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + nverts)
    try:
        expand(0, (1 << nverts) - 1, 0)
    finally:
        sys.setrecursionlimit(limit)
    return out


def maximal_cliques(n: int, k: int, t: int, vertex_cap: int = VERTEX_CAP) -> tuple[tuple[int, ...], list[int]]:
    """The k-subsets of [n] in increasing mask order, and every maximal
    t-intersecting family over them once, as a bitmask of vertex indices."""
    validate_params(n, k, t)
    graph = build_intersection_graph(n, k, t, vertex_cap)
    return graph.vertices, _bron_kerbosch(graph.rows, len(graph.vertices))


def enumerate_maximal_t_intersecting(n: int, k: int, t: int, vertex_cap: int = VERTEX_CAP) -> list[Family]:
    """Every maximal t-intersecting k-uniform family over [n], exactly once."""
    verts, cliques = maximal_cliques(n, k, t, vertex_cap)
    fams = [Family(n, k, tuple(verts[i] for i in _bits(cm))) for cm in cliques]
    fams.sort(key=lambda f: f.members)
    return fams


def maximal_with_tau_t_plus_1(
    n: int, k: int, t: int, vertex_cap: int = VERTEX_CAP
) -> tuple[int, list[tuple[Family, CoverStructure]]]:
    """The number of maximal t-intersecting k-uniform families over [n], and
    those with covering number t+1, sorted by members, each with its
    `covering_number(F, t)`.

    Covers are read off the clique masks: one row per s-set T of [n]
    (s = t, t+1) holds the vertices meeting T in >= t elements, stored
    complemented, so T covers a clique iff `not clique & row`. tau = t+1
    iff some (t+1)-set covers the clique and no t-set does; then the
    (t+1)-covers are all the minimum covers, in table order. They lie inside
    the union of the family, since a cover element outside it could be
    dropped, so scanning all of [n] matches the library's candidates."""
    verts, cliques = maximal_cliques(n, k, t, vertex_cap)
    full = (1 << len(verts)) - 1

    def missing(size: int) -> tuple[tuple[int, ...], list[int]]:
        table = subsets(full_mask(n), size).masks
        return table, [full ^ row for row in _compat_rows(table, verts, t)]

    plus, plus_rows = missing(t + 1)
    _, t_rows = missing(t)
    found = []
    for clique in cliques:
        covers = tuple([T for T, row in zip(plus, plus_rows) if not clique & row])
        if covers and all(clique & row for row in t_rows):
            fam = Family(n, k, tuple([verts[i] for i in _bits(clique)]))
            found.append((fam, CoverStructure(t + 1, covers, reduce(or_, covers))))
    found.sort(key=lambda fc: fc[0].members)
    return len(cliques), found


_CHUNK = 4  # index bits per table: 16 entries per 4 rows, so table size stays linear in the rows


def _and_tables(rows: list[int], full: int) -> list[list[int]]:
    """One table per _CHUNK-bit chunk of an index mask: entry b of table c
    is the AND of `full` and rows[_CHUNK * c + i] over the set bits i of b."""
    tables = []
    for c in range(0, len(rows), _CHUNK):
        chunk = rows[c : c + _CHUNK]
        table = [full] * (1 << len(chunk))
        for b in range(1, len(table)):
            top = b.bit_length() - 1
            table[b] = table[b ^ (1 << top)] & chunk[top]
        tables.append(table)
    return tables


def _closed_pairs(
    verts1: tuple[int, ...], verts2: tuple[int, ...], t: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (F, G) over verts1 x verts2 with F and G nonempty, G the star of F
    and F the star of G, as member tuples, ordered by the vertex mask of F.
    Close-by-One over side 1: from the closure of the empty family, add one
    vertex j above the last one added, close, and keep the result only if the
    closure gained no vertex below j, so each closed F is reached from
    exactly one parent. The caller bounds len(verts1) by its cap."""
    rows12 = _compat_rows(verts1, verts2, t)
    full1, full2 = (1 << len(verts1)) - 1, (1 << len(verts2)) - 1
    star21 = _and_tables(_compat_rows(verts2, verts1, t), full1)
    low_bits = (1 << _CHUNK) - 1

    def close(g: int) -> int:
        f = full1
        for table in star21:
            f &= table[g & low_bits]
            g >>= _CHUNK
        return f

    found = []
    stack = [(close(full2), full2, 0)]
    while stack:
        f, g, low = stack.pop()
        found.append((f, g))
        cand = full1 & ~f & -(1 << low)  # vertices from `low` up, not in F
        while cand:
            bit = cand & -cand
            cand ^= bit
            g2 = g & rows12[bit.bit_length() - 1]
            f2 = close(g2)
            if (f2 ^ f) & (bit - 1) == 0:
                stack.append((f2, g2, bit.bit_length()))
    found.sort()
    for pos, (f, g) in enumerate(found):  # in place, so the masks go as the tuples come
        found[pos] = (tuple([verts1[i] for i in _bits(f)]), tuple([verts2[j] for j in _bits(g)]))
    return [fg for fg in found if fg[0] and fg[1]]


def enumerate_maximal_pairs(
    n: int, k1: int, k2: int, t: int, subset_cap: int = SUBSET_CAP
) -> list[tuple[Family, Family]]:
    """Every maximal cross-t-intersecting pair (F, G) with F k1-uniform and G
    k2-uniform, both nonempty, by Close-by-One."""
    validate_params(n, k1, t)
    validate_params(n, k2, t)
    v1 = comb(n, k1)
    if v1 > subset_cap:
        raise ValueError(f"C({n},{k1}) = {v1} exceeds the subset cap {subset_cap}")
    verts1, verts2 = subsets(full_mask(n), k1).masks, subsets(full_mask(n), k2).masks
    pairs = _closed_pairs(verts1, verts2, t)
    pairs.sort(key=lambda fg: fg[0])  # by the members of F, which determines G
    return [(Family(n, k1, f), Family(n, k2, g)) for f, g in pairs]


@dataclass
class SearchResult:
    """Outcome of the exhaustive product search."""

    n: int
    k1: int
    k2: int
    t: int
    min_tau: int
    best_product: int
    witnesses: list[tuple[Family, Family]]
    pairs_examined: int
    at_proved_threshold: bool


def extremal_product_search(
    n: int, k1: int, k2: int, t: int, min_tau: int, subset_cap: int = SUBSET_CAP
) -> SearchResult:
    """Maximum of |F| |G| over maximal cross-t-intersecting pairs with both
    covering numbers at least min_tau; witnesses are deduplicated by the joint
    canonical form of the ordered pair. The `at_proved_threshold` flag records
    whether n reaches the regime where the extremal structure is actually
    characterized; below it the winner is reported as a measurement.

    The pairs are walked by decreasing product, stably, so covering numbers
    are computed only until the first product below the best qualifying one,
    and the winners keep their enumeration order."""
    pairs = enumerate_maximal_pairs(n, k1, k2, t, subset_cap)
    best = 0
    winners: list[tuple[Family, Family]] = []
    for f, g in sorted(pairs, key=lambda fg: -(len(fg[0]) * len(fg[1]))):
        product = len(f) * len(g)
        if product < best:
            break
        if covering_number(f, t).tau >= min_tau and covering_number(g, t).tau >= min_tau:
            best = product
            winners.append((f, g))
    seen: set[bytes] = set()
    unique = []
    for f, g in winners:
        key = canonical_form_tuple([f, g])
        if key not in seen:
            seen.add(key)
            unique.append((f, g))
    return SearchResult(
        n=n,
        k1=k1,
        k2=k2,
        t=t,
        min_tau=min_tau,
        best_product=best,
        witnesses=unique,
        pairs_examined=len(pairs),
        at_proved_threshold=n >= n_threshold(k1, k2, t),
    )
