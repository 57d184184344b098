"""Exhaustive desk-scale enumeration of maximal families and pairs.

Maximal t-intersecting families are the maximal cliques of the intersection
graph on all k-subsets (edges between t-intersecting pairs), found by
pivoting Bron-Kerbosch over bitset rows. Maximal cross-t-intersecting pairs
are the fixed points F = star(star(F)) of the double star map, found by a
full sweep over subfamilies of the complete k1-uniform family; this is
correct-by-construction exhaustive and therefore capped at small vertex
counts. Exceeding a cap is an error, never silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .canon import canonical_form_tuple
from .core import Family, covering_number, full_mask, subsets
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


def _bron_kerbosch(rows: tuple[int, ...], nverts: int) -> list[int]:
    """All maximal cliques as vertex bitmasks, with the max-degree pivot rule
    (pivot maximizes its candidate neighbourhood, ties to the lowest index)."""
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
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

    expand(0, (1 << nverts) - 1, 0)
    return out


def enumerate_maximal_t_intersecting(n: int, k: int, t: int, vertex_cap: int = VERTEX_CAP) -> list[Family]:
    """Every maximal t-intersecting k-uniform family over [n], exactly once."""
    graph = build_intersection_graph(n, k, t, vertex_cap)
    cliques = _bron_kerbosch(graph.rows, len(graph.vertices))
    fams = [Family(n, k, tuple(graph.vertices[i] for i in _bits(cm))) for cm in cliques]
    fams.sort(key=lambda f: f.members)
    return fams


def _sweep_fixed_points(
    verts1: tuple[int, ...], verts2: tuple[int, ...], t: int, include_empty: bool = False
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (F, G) over verts1 x verts2 with G the star of F and F the star of
    G, as member tuples, ordered by the vertex mask of F. The sweep over
    every subset of side 1 is exhaustive: a maximal pair is determined by
    either side. Each caller bounds len(verts1) by its own cap."""
    rows12, rows21 = _compat_rows(verts1, verts2, t), _compat_rows(verts2, verts1, t)
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


def enumerate_maximal_pairs(
    n: int, k1: int, k2: int, t: int, subset_cap: int = SUBSET_CAP
) -> list[tuple[Family, Family]]:
    """Every maximal cross-t-intersecting pair (F, G) with F k1-uniform and G
    k2-uniform, both nonempty, via the full subset sweep."""
    v1 = comb(n, k1)
    if v1 > subset_cap:
        raise ValueError(f"C({n},{k1}) = {v1} exceeds the subset cap {subset_cap}")
    verts1, verts2 = subsets(full_mask(n), k1).masks, subsets(full_mask(n), k2).masks
    out = [(Family(n, k1, f), Family(n, k2, g)) for f, g in _sweep_fixed_points(verts1, verts2, t)]
    out.sort(key=lambda fg: (fg[0].members, fg[1].members))
    return out


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
    characterized; below it the winner is reported as a measurement."""
    pairs = enumerate_maximal_pairs(n, k1, k2, t, subset_cap)
    best = 0
    winners: list[tuple[Family, Family]] = []
    for f, g in pairs:
        if covering_number(f, t).tau < min_tau or covering_number(g, t).tau < min_tau:
            continue
        product = len(f) * len(g)
        if product > best:
            best, winners = product, [(f, g)]
        elif product == best and best > 0:
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
