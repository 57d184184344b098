"""Exhaustive desk-scale enumeration of maximal families and pairs.

Every enumeration here lists maximal cliques with one walk, a pivoting
Bron-Kerbosch over bitset rows. Maximal t-intersecting families are the
maximal cliques of the intersection graph on all k-subsets (edges between
t-intersecting pairs). Maximal tuples of pairwise cross-t-intersecting
families are the maximal cliques of the coloured graph on the pairs (i, R),
with (i, R) ~ (j, R') iff i = j or |R ∩ R'| >= t. With two colours, those
with both sides nonempty are the maximal cross-t-intersecting pairs: the
fixed points F = star(star(F)) of the double star map. The same kernel lists
the residual tuples of `classify`.

Listing walks every maximal clique. Counting walks only the cliques through
one vertex (`search`) or through one edge of each edge orbit at that vertex
(`classify.count_theorem_1_2`). S_n permutes the k-sets transitively and
maps maximal families onto maximal families, so for any S_n-invariant g,
double counting the pairs (F, v in F) gives sum_F g(F) = C(n,k) *
sum_{F ∋ v0} g(F)/|F| exactly, where v0 = {1..k}. The stabiliser S_k x
S_{n-k} of v0 has one orbit O_j on its neighbours for each j = |v0 ∩ w|
with t <= j <= k-1, of C(k,j) C(n-k,k-j) members; let w_j be the first in
table order. Double counting the ordered pairs of distinct members of each
F, when v0 has a neighbour (so every maximal F has two or more members),
gives sum_F g(F) = C(n,k) * sum_j |O_j| * sum_{F ∋ v0, w_j}
g(F)/(|F|(|F|-1)); when it has none (t = k or k = n), {v0} is the one
family through v0 and sum_F g(F) = C(n,k) g({v0}). The maximal cliques
through given vertices are the maximal cliques of the graph induced on
their common closed neighbourhood, so `maximal_cliques(..., through)`
builds rows there alone, the given vertices first, and the one walk lists
exactly those: each given vertex is adjacent to every other vertex there,
so the pivot rule takes them in turn, each the only branch at its level.
`_orbit_count` sums the weighted terms of all the walks of one count as a
Fraction and refuses a non-integer total.

Every bit row is packed by one function, `_packed`, straight from the
relation blocks into little-endian 64-bit words: the adjacency rows of the
walk are read off them as ints. Every covering-number test on clique masks
goes through one kernel, `_cover_blocks`: blocks of cliques (sized by
`core._BLOCK_WORDS`, the one bound on uint64 temporaries), packed into the
same words, are ANDed against one complemented row of `_packed` per
candidate s-set cover.
`classify.count_theorem_1_2` reads the tau = t+1 families and their minimum
covers off the t- and (t+1)-set rows. The product search groups the pair
cliques through v0 by |F| |G| and takes the groups by decreasing product
up to the first with a qualifying pair, one with no (min_tau - 1)-set
covering either side, since tau_t >= m iff no (m-1)-set is a t-cover. Only
the qualifying pairs of that group are decoded.

One budget, `core.BUDGET`, bounds every enumeration, checked three times:
before any row is built, the V^2 vertex comparisons of a V-vertex graph (V
counts N[v0] alone for an orbit walk, a bound on any graph through v0);
before any cover row (for the search, before the walk), the cover rows
times the V vertices; and during the walk, the number of maximal cliques
walked, summed over the walks of one count. Exceeding it is an error,
never silent truncation. Every adjacency and cover row is read off the one
relation kernel of `core`, `_meet_blocks`.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice
from math import comb
from typing import Iterable, Sequence

import numpy as np

from . import core
from .canon import canonical_form
from .core import Family, _check_budget, _meet_blocks, elements_of, full_mask, subsets, validate_params
from .formulas import n_threshold


def _meeting(universe: int, v0: int, size: int, t: int) -> list[tuple[int, int]]:
    """Each intersection size j >= t that a `size`-subset of `universe` can
    have with v0 (a subset of it), with the number of such subsets."""
    k, m = v0.bit_count(), (universe & ~v0).bit_count()
    counts = [(j, comb(k, j) * comb(m, size - j)) for j in range(t, min(k, size) + 1)]
    return [(j, c) for j, c in counts if c]


def _neighbourhood(universe: int, v0: int, size: int, t: int) -> list[int]:
    """The `size`-subsets of `universe` meeting v0 in >= t elements, in
    increasing mask order, from one table per intersection size: none holds
    more subsets than the result."""
    rest = universe & ~v0
    return sorted(
        a | b
        for j, _ in _meeting(universe, v0, size, t)
        for a in subsets(v0, j).masks
        for b in subsets(rest, size - j).masks
    )


def _orbit_count(orbit: int, terms: Iterable[tuple[int, int]]) -> int:
    """sum over (w, c) of orbit * c / w, which must be an integer. With c
    the sum of g(F) over the cliques F of size s through one vertex of an
    orbit of `orbit` vertices and w = s, summed over s, it is the sum of g
    over all cliques; so it is with c the sum over those through one edge
    (v0, w_j) times |O_j| and w = s(s-1), summed over s and j."""
    total = sum((Fraction(orbit * c, w) for w, c in terms if c), Fraction(0))
    if total.denominator != 1:
        raise ArithmeticError(f"an orbit count came out as {total}, not an integer")
    return total.numerator


def _packed(a: np.ndarray, b: np.ndarray, t: int) -> np.ndarray:
    """The one packer of bit rows: row i of -(-len(b) // 64) little-endian
    64-bit words, bit j set iff |a[i] ∩ b[j]| >= t, for two uint64 arrays,
    each block of `_meet_blocks` packed straight into its rows. Bits past
    len(b) are 0."""
    out = np.zeros((len(a), -(-len(b) // 64)), dtype="<u8")
    octets = out.view(np.uint8)
    done = 0
    for block in _meet_blocks(a, b, t):
        packed = np.packbits(block, axis=1, bitorder="little")
        octets[done : done + len(block), : packed.shape[1]] = packed
        done += len(block)
    return out


def _compat_rows(verts: Sequence[int], other: Sequence[int], t: int) -> list[int]:
    """Row i: the bitmask of the indices j with |verts[i] ∩ other[j]| >= t,
    read off the words of `_packed`, one bytes object per row. A uint64
    array `verts`, such as a subset table's, is read in place."""
    if not other:
        return [0] * len(verts)
    words = _packed(np.asarray(verts, dtype=np.uint64), np.array(other, dtype=np.uint64), t)
    return [int.from_bytes(row, "little") for row in words.view(f"V{8 * words.shape[1]}").ravel().tolist()]


def _set_text(mask: int) -> str:
    return "{" + ",".join(map(str, elements_of(mask))) + "}"


def _bron_kerbosch(rows: Sequence[int], nverts: int, walked: int = 0) -> list[int]:
    """All maximal cliques as vertex bitmasks, with the max-degree pivot rule
    (pivot maximizes its candidate neighbourhood, ties to the lowest index).
    The only enumeration walk in xfam: the intersection graph and the
    coloured graphs of `maximal_cross_tuples` both come here. On a graph
    whose vertices 0..m-1 are each adjacent to every other vertex, the pivot
    at depth i < m is vertex i and it is the only branch there, so every
    clique holds all m. The walk stops with an error at clique
    `core.BUDGET` + 1 - `walked`, `walked` counting the cliques that earlier
    walks of the same count took.
    Each recursion level adds one vertex, so the recursion limit is raised
    by nverts for the walk and restored however it ends."""
    out: list[int] = []
    budget = core.BUDGET
    room = budget - walked

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            if len(out) >= room:
                raise ValueError(f"found more than the budget of {budget:,} maximal cliques")
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


def _coloured_graph(
    universe: int, sizes: tuple[int, ...], t: int, through_v0: bool = False
) -> tuple[list[int], list[int], list[int]]:
    """The vertices of the coloured graph of `maximal_cross_tuples` (the
    `sizes[i]`-subsets of `universe`, block after block), one bitmask of
    vertex indices per colour, and the adjacency rows, for `_bron_kerbosch`.
    With `through_v0`, v0 is the smallest `sizes[0]`-subset of `universe`,
    the vertex of index 0, and the graph is cut down to N[v0]: all of
    colour 0, and the sets of the other colours meeting v0 in >= t
    elements."""
    m = universe.bit_count()
    counted = " + ".join(f"C({m},{size})" for size in sizes)
    v0 = sum(1 << (e - 1) for e in elements_of(universe)[: sizes[0]])
    if through_v0:
        counted = f"N[{_set_text(v0)}] in {counted}"
        nverts = comb(m, sizes[0]) + sum(c for size in sizes[1:] for _, c in _meeting(universe, v0, size, t))
    else:
        nverts = sum(comb(m, size) for size in sizes)
    _check_budget(f"{counted} = {nverts:,} vertices", nverts * nverts)
    blocks = [subsets(universe, sizes[0]).masks]
    blocks += [
        _neighbourhood(universe, v0, size, t) if through_v0 else subsets(universe, size).masks for size in sizes[1:]
    ]
    verts = [R for block in blocks for R in block]
    rows: list[int] = []
    colours = []
    for block in blocks:
        low = len(rows)
        colours.append(((1 << len(block)) - 1) << low)
        rows += [(row | colours[-1]) & ~(1 << v) for v, row in enumerate(_compat_rows(block, verts, t), low)]
    return verts, colours, rows


def _decode(verts: list[int], colours: list[int], clique: int) -> tuple[tuple[int, ...], ...]:
    """The member masks of each colour of `clique`, ascending; element e of
    a clique mask is vertex e - 1."""
    return tuple(tuple([verts[v - 1] for v in elements_of(clique & colour)]) for colour in colours)


def maximal_cross_tuples(
    universe: int, sizes: tuple[int, ...], t: int = 1
) -> list[tuple[tuple[int, ...], ...]]:
    """All maximal tuples of pairwise cross-t-intersecting families, component
    i made of `sizes[i]`-subsets of `universe`, as sorted member-mask tuples
    (empty components allowed), in sorted order. They are the maximal cliques
    of the coloured graph on the pairs (i, R), with (i, R) ~ (j, R') iff
    i = j or |R & R'| >= t, split by colour."""
    verts, colours, rows = _coloured_graph(universe, sizes, t)
    return sorted(_decode(verts, colours, c) for c in _bron_kerbosch(rows, len(verts)))


def maximal_cliques(
    n: int, k: int, t: int, through: Sequence[int] = (), walked: int = 0
) -> tuple[tuple[int, ...], list[int]]:
    """The k-subsets of [n] in increasing mask order, and every maximal
    t-intersecting family over them once, as a bitmask of vertex indices.
    Given `through`, distinct and pairwise t-intersecting k-sets, only the
    k-sets meeting each of them in >= t elements, `through` first in its
    order and the rest in increasing mask order, and only the families
    holding all of `through`; N[through[0]] is counted against the budget
    before any row is built. `walked` counts the cliques that earlier walks
    of the same count took from the budget."""
    validate_params(n, k, t)
    if through:
        v0 = through[0]
        counted, nverts = f"N[{_set_text(v0)}] in C({n},{k})", sum(c for _, c in _meeting(full_mask(n), v0, k, t))
    else:
        counted, nverts = f"C({n},{k})", comb(n, k)
    _check_budget(f"{counted} = {nverts:,} vertices", nverts * nverts)
    if through:
        near = np.array(_neighbourhood(full_mask(n), v0, k, t), dtype=np.uint64)
        for w in through[1:]:
            near = near[np.bitwise_count(near & np.uint64(w)) >= t]
        rest = [v for v in near.tolist() if v not in through]
        if len(rest) + len(through) != len(near):
            raise ValueError("the sets to walk through must be distinct, pairwise t-intersecting k-subsets of [n]")
        verts = (*through, *rest)
    else:
        verts = subsets(full_mask(n), k).masks
    rows = [row & ~(1 << i) for i, row in enumerate(_compat_rows(verts, verts, t))]
    return verts, _bron_kerbosch(rows, len(verts), walked)


def enumerate_maximal_t_intersecting(n: int, k: int, t: int) -> list[Family]:
    """Every maximal t-intersecting k-uniform family over [n], exactly once."""
    verts, cliques = maximal_cliques(n, k, t)
    fams = [Family.from_table(n, k, tuple([verts[i - 1] for i in elements_of(cm)])) for cm in cliques]
    fams.sort(key=lambda f: f.members)
    return fams


def _cover_blocks(n: int, t: int, sizes: Sequence[int], verts: Sequence[int]):
    """The one cover-row kernel, on cliques as bitmasks of indices into the
    k-sets `verts`. One row per s-set T of [n], for each s in `sizes`, in
    table order, holds the vertices meeting T in fewer than t elements, so T
    t-covers a clique iff their AND is 0. The rows times the vertices are
    counted against `core.BUDGET` before any row is built. Returns a function
    from cliques to an iterator over blocks of them, each with one boolean
    matrix per size, true where the column covers the row's clique. A block
    holds `core._BLOCK_WORDS` // (cover rows) cliques, at least one, so its
    uint64 temporaries stay near `core._BLOCK_WORDS` however many cover rows
    there are. A row is the complement of a row of `_packed`, so its bits
    past the vertices are 1; a clique has none there, so they test
    nothing."""
    nrows = sum(comb(n, s) for s in sizes)
    counted = " + ".join(f"C({n},{s})" for s in sizes)
    _check_budget(f"{counted} = {nrows:,} cover rows of {len(verts):,} vertices", nrows * len(verts))
    nwords = -(-len(verts) // 64)
    varray = np.array(verts, dtype=np.uint64)
    tables = [~_packed(subsets(full_mask(n), s).array, varray, t) for s in sizes]
    step = max(1, core._BLOCK_WORDS // nrows)

    def covered(words: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # entry (i, j): row j misses no vertex of clique i, one word at a time
        hits = words[:, 0, None] & rows[:, 0]
        for w in range(1, nwords):
            hits |= words[:, w, None] & rows[:, w]
        return hits == 0

    def blocks(cliques: Iterable[int]):
        it = iter(cliques)
        while chunk := list(islice(it, step)):
            data = b"".join([c.to_bytes(8 * nwords, "little") for c in chunk])
            words = np.frombuffer(data, dtype="<u8").reshape(len(chunk), nwords)
            yield chunk, [covered(words, rows) for rows in tables]

    return blocks


@dataclass
class SearchResult:
    """Outcome of the exhaustive product search."""

    best_product: int
    witnesses: list[tuple[Family, Family]]
    pairs_examined: int
    at_proved_threshold: bool


def extremal_product_search(n: int, k1: int, k2: int, t: int, min_tau: int) -> SearchResult:
    """Maximum of |F| |G| over maximal cross-t-intersecting pairs with both
    covering numbers at least min_tau; witnesses are deduplicated up to
    isomorphism of the ordered pair, keyed by the canonical form of F. The
    `at_proved_threshold` flag records whether n reaches the regime where
    the extremal structure is actually characterized; below it the winner is
    reported as a measurement.

    Only the maximal cliques of the pair graph whose side 1 holds v0 =
    {1..k1} are walked (see the comment in the body). They are grouped by
    product, read off their bitmasks, and the groups are taken by
    decreasing product up to the first one with a qualifying pair. In each
    group, both sides of every clique are tested against the cover rows of
    `_cover_blocks` (counted against `core.BUDGET` before the walk), and
    only the qualifying pairs are decoded, in enumeration order (sorted by
    the members of F, then G): F into a family, and G only for a new class.
    A min_tau above n is refused, since [n] is a t-cover of every family
    over [n], and so is a negative one."""
    validate_params(n, k1, t)
    validate_params(n, k2, t)
    if min_tau < 0:
        raise ValueError(f"min-tau {min_tau} < 0: a covering number is never negative")
    if min_tau > n:
        raise ValueError(
            f"min-tau {min_tau} > n = {n}: no family over [n] has a larger covering number, since [n] is a t-cover"
        )
    # A permutation p of [n] maps maximal pairs onto maximal pairs,
    # preserving |F|, |G| and both covering numbers, and S_n is transitive
    # on the k1-sets. So walking only the pairs with v0 = {1..k1} in F keeps
    # the report:
    # - every pair has an image with v0 in F, so the best qualifying product
    #   is the same;
    # - every winner class (below) has a member with v0 in F, and those
    #   members come first in the full decode order, since F is sorted and
    #   v0 is the smallest k1-set mask: the first winner of each class, the
    #   one kept, is the same;
    # - double counting the pairs ((F, G), v in F) gives the number of pairs
    #   as C(n, k1) times the sum of 1/|F| over the pairs with v0 in F.
    verts, colours, rows = _coloured_graph(full_mask(n), (k1, k2), t, through_v0=True)
    # a superset of a cover is a cover, so tau_t >= min_tau iff no
    # (min_tau - 1)-set is a t-cover; tau_t >= t always holds
    blocks = _cover_blocks(n, t, (min_tau - 1,), verts) if min_tau > t else None
    side1, side2 = colours
    groups: dict[int, list[int]] = {}
    f_sizes: Counter[int] = Counter()
    for c in _bron_kerbosch(rows, len(verts)):
        f, g = (c & side1).bit_count(), (c & side2).bit_count()
        if g:
            f_sizes[f] += 1
            groups.setdefault(f * g, []).append(c)
    best = 0
    witnesses: list[tuple[Family, Family]] = []
    for product in sorted(groups, reverse=True):
        group = groups[product]
        if blocks:
            sides = (c & side for c in group for side in colours)
            covered = np.concatenate([covers.any(axis=1) for _, (covers,) in blocks(sides)])
            group = list(compress(group, (~(covered[0::2] | covered[1::2])).tolist()))
        # A maximal pair has G = star(F), the k2-sets meeting every member
        # of F in >= t elements, and a permutation p of [n] preserves
        # intersection sizes, so p(star(F)) = star(p(F)). Hence p maps (F, G)
        # onto another maximal pair (F', G') iff it maps F onto F': the joint
        # classes of the winners are the classes of F alone, and
        # canonical_form(F) is a key for them.
        seen: set[bytes] = set()
        for fm, gm in sorted(_decode(verts, colours, c) for c in group):
            f = Family.from_table(n, k1, fm)
            key = canonical_form(f)
            if key not in seen:
                seen.add(key)
                witnesses.append((f, Family.from_table(n, k2, gm)))
        if witnesses:
            best = product
            break
    return SearchResult(
        best_product=best,
        witnesses=witnesses,
        pairs_examined=_orbit_count(comb(n, k1), f_sizes.items()),
        at_proved_threshold=n >= n_threshold(k1, k2, t),
    )
