"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's search strategies: covers are found by
enumerating every subset of the union by size, maximal families by sweeping
every subfamily of the complete family, and maximal pairs straight from the
definition (no single member can be added to either side) or by sweeping
every subfamily of one side for fixed points of the double star map. Slow
but unarguable at tiny scale. `sweep_cross_tuples` is the same sweep for
r-tuples of one size, kept as the oracle of the coloured-clique kernel
`xfam.enumeration.maximal_cross_tuples`. `enumerate_maximal_pairs` lists the
maximal pairs as families off that kernel, for the tests that walk them.
`bron_kerbosch_from` is the walk entered at a start vertex that the orbit
walks once took, kept as the oracle of the plain walk on a graph cut down to
N[v0].

`canonical_form_reference` is the canonical-form search in its plain shape
(sorted colour tuples as refinement signatures, every leaf encoded to bytes,
orbit pruning only), kept as the byte-for-byte oracle of `xfam.canon`.

`select_reference` is the one-line loop `core.select` once was (every
candidate against every member), kept as the oracle of its two paths.
`compat_rows_reference` is the pair loop `enumeration._compat_rows` once
was, kept as the oracle of the adjacency rows it reads off the words that
`enumeration._packed` packs from `core._meet_blocks`.

The `*_members_reference` builders (B, C1, C2, H, D and the T1.2-iv
template) are the member builders in their filter shape: a Python membership
test over every k-set, or a union of anchored intervals and specials. They
are the oracle of the builders in `xfam.constructions` and
`xfam.classify._iv_members`, which select the k-sets meeting each shape's
anchor sets; the rebuild matchers below use them too.

`classify_all_reference` is the `classify-all` loop in its library shape
(every maximal family through `covering_number`, then `match_theorem_1_2`),
kept as the oracle of the cover-row kernel as `maximal_with_tau_t_plus_1`
decodes its minimum covers over the full walk.

`count_theorem_1_2_reference` and `extremal_product_search_reference` are
`classify-all` and `search` over the full walk, every maximal family or pair
counted once, kept as the oracles of the orbit-weighted walks in
`xfam.classify.count_theorem_1_2` (through one edge per edge orbit at v0)
and `xfam.extremal_product_search` (through v0); the search oracle decides
`--min-tau` with `covering_number` on decoded families, not with cover rows
on clique masks. `count_theorem_1_2_vertex_orbit` is `classify-all` in its
vertex-orbit shape (one walk through v0, each family weighed by
C(n,k)/|F|), kept as the oracle of the edge-orbit walks past the full
walk's budget. `cover_words_reference` is the cover-row table in its
two-step shape (rows as ints off `_compat_rows`, then split into 64-bit
words one int at a time), kept as the oracle of the complemented rows of
`enumeration._packed` that `_cover_blocks` tests cliques against.

`match_theorem_1_2_reference` and `classify_pair_reference` are the template
matchers in their rebuild shape (every candidate template rebuilt over all
k-sets and compared with the input, residual tuples checked for maximality by
star fixed points), kept as the oracle of the containment matchers in
`xfam.classify`; `classify_fact_2_1_reference` decides simplex or star by
canonical form against the generated template, the oracle of the
containment decision in `xfam.classify_fact_2_1`.

`verify_construction_reference` is the pair verifier in its recomputing
shape (`covering_number` on each side per call, `is_cross_t_intersecting`
and `is_maximal_pair`), kept as the oracle of `verify_construction` and
`verify_grid`, which read every check off batched up-set closures.
`audit_42iv_reference` is the Lemma 4.2(iv) auditor as a `Fraction`
double loop, the oracle of the integer-gap `formulas._audit_42iv`.

`jsonable_reference` is the report converter the CLI once ran before
`json.dumps(..., indent=2, sort_keys=True)`, kept as the oracle of the
direct writer `xfam.cli._dumps`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, product
from math import comb
from operator import or_
from typing import Sequence

import numpy as np

import xfam.core
from xfam import (
    Family,
    canonical_form,
    elements_of,
    enumerate_maximal_t_intersecting,
    is_cross_t_intersecting,
    mask_of,
    match_theorem_1_2,
)
from xfam.classify import TEMPLATE_ORDER, TemplateMatch, _anchor_columns, _iii_members, _no_match
from xfam.constructions import ConstructionSpec, _a_members
from xfam.core import (
    CoverStructure,
    SubsetTable,
    anchored_family,
    covering_number,
    full_mask,
    is_maximal_pair,
    is_maximal_t_intersecting,
    select,
    subsets,
    validate_params,
)
from xfam.enumeration import (
    SearchResult,
    _compat_rows,
    _cover_blocks,
    _orbit_count,
    maximal_cliques,
    maximal_cross_tuples,
)
from xfam.formulas import AuditPoint, _point, n_threshold, tilde_g

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


def select_reference(cands: SubsetTable, members: Sequence[int], t: int) -> tuple[int, ...]:
    """The candidates meeting every member in >= t elements, in table order."""
    return tuple(c for c in cands.masks if all((c & m).bit_count() >= t for m in members))


def _in_b(f: int, quad: tuple[int, int, int, int]) -> bool:
    # {a1,a2} or {a2,a3} is a2 with a1 or a3; then {a3,a4}
    a1, a2, a3, a4 = (1 << (a - 1) for a in quad)
    return bool(f & a2 and f & (a1 | a3) or f & a3 and f & a4)


def b_members_reference(n: int, k: int, quad: tuple[int, int, int, int]) -> tuple[int, ...]:
    """k-sets containing {a1,a2}, {a2,a3} or {a3,a4}."""
    return tuple(f for f in subsets(full_mask(n), k).masks if _in_b(f, quad))


def c1_members_reference(n: int, l: int, Pm: int, Lm: int) -> tuple[int, ...]:
    """l-sets containing P, plus L minus one element of P."""
    specials = {Lm ^ (1 << (e - 1)) for e in elements_of(Pm)}
    return tuple(sorted(set(anchored_family(n, l, Pm).members) | specials))


def _in_c2(f: int, t: int, Pm: int, Lm: int) -> bool:
    return Pm & ~f == 0 or ((f & Pm).bit_count() == t and f & Lm & ~Pm != 0)


def c2_members_reference(n: int, k: int, t: int, Pm: int, Lm: int) -> tuple[int, ...]:
    """k-sets containing P, or meeting P in exactly t with a hit in L minus P."""
    return tuple(f for f in subsets(full_mask(n), k).masks if _in_c2(f, t, Pm, Lm))


def h_members_reference(n: int, k: int, Tm: int, Xm: int, Ym: int) -> tuple[int, ...]:
    """k-sets containing T and meeting Y, plus X cup T minus one element of T."""
    specials = {Xm | (Tm ^ (1 << (e - 1))) for e in elements_of(Tm)}
    anchored = {f for f in subsets(full_mask(n), k).masks if Tm & ~f == 0 and f & Ym != 0}
    return tuple(sorted(anchored | specials))


def d_members_reference(n: int, k: int, t: int, T: tuple[int, ...], xs: tuple[int, int, int, int]) -> tuple[int, ...]:
    """Intervals over T+{x1,x3}, T+{x2,x4}, T+{x2,x3} plus every k-set
    meeting T+{x1..x4} in at least t+2 elements."""
    tm = mask_of(T)
    x1, x2, x3, x4 = xs
    b1 = tm | mask_of((x1, x3))
    b2 = tm | mask_of((x2, x4))
    c1 = tm | mask_of((x2, x3))
    big = tm | mask_of(xs)

    def pred(f: int) -> bool:
        if (f & big).bit_count() >= t + 2:
            return True
        return b1 & ~f == 0 or b2 & ~f == 0 or c1 & ~f == 0

    return tuple(f for f in subsets(full_mask(n), k).masks if pred(f))


def iv_members_reference(
    n: int, k: int, t: int, Tm: int, Mm: int, A: tuple[int, ...], B: tuple[int, ...]
) -> tuple[int, ...]:
    """The T1.2-iv template: k-sets holding T and meeting M - T, plus T
    with each residual of A, plus M minus an element of T with each of B."""
    out = {f for f in subsets(full_mask(n), k).masks if Tm & ~f == 0 and (f & Mm).bit_count() >= t + 1}
    out |= {Tm | a for a in A}
    for e in elements_of(Tm):
        drop = Mm ^ (1 << (e - 1))
        out |= {drop | b for b in B}
    return tuple(sorted(out))


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


def enumerate_maximal_pairs(n: int, k1: int, k2: int, t: int) -> list[tuple[Family, Family]]:
    """Every maximal cross-t-intersecting pair (F, G) with F k1-uniform and G
    k2-uniform, both nonempty, ordered by the members of F (which determine
    G): the two-colour tuples of `maximal_cross_tuples` with both colours
    present, as families."""
    validate_params(n, k1, t)
    validate_params(n, k2, t)
    pairs = maximal_cross_tuples(full_mask(n), (k1, k2), t)
    return [(Family(n, k1, f), Family(n, k2, g)) for f, g in pairs if f and g]


def bron_kerbosch_from(rows: Sequence[int], nverts: int, start: int) -> list[int]:
    """The maximal cliques holding vertex `start`, by the pivoting walk of
    `xfam.enumeration._bron_kerbosch` entered at `start` itself (R = {start},
    P = its neighbours), under the same clique budget: the oracle of the
    library walk entered at the root of a graph cut down to N[v0]."""
    out: list[int] = []
    budget = xfam.core.BUDGET

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            if len(out) == budget:
                raise ValueError(f"found more than the budget of {budget:,} maximal cliques")
            out.append(r)
            return
        pivot = max(_bits(p | x), key=lambda u: ((rows[u] & p).bit_count(), -u))
        cand = p & ~rows[pivot]
        for v in _bits(cand):
            expand(r | 1 << v, p & rows[v], x & rows[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(1 << start, rows[start], 0)
    return out


def compat_rows_reference(verts: Sequence[int], other: Sequence[int], t: int) -> list[int]:
    """Row i: the bitmask of the indices j with |verts[i] ∩ other[j]| >= t."""
    rows = []
    for a in verts:
        row = 0
        for j, b in enumerate(other):
            if (a & b).bit_count() >= t:
                row |= 1 << j
        rows.append(row)
    return rows


def cover_words_reference(cands: Sequence[int], verts: Sequence[int], t: int) -> np.ndarray:
    """Row i: the vertices of `verts` meeting cands[i] in fewer than t
    elements, as little-endian 64-bit words, converted through Python ints
    one word at a time."""
    full, nwords = (1 << len(verts)) - 1, -(-len(verts) // 64)
    rows = [full ^ row for row in _compat_rows(cands, verts, t)]
    return np.array([[row >> (64 * w) & (2**64 - 1) for w in range(nwords)] for row in rows], dtype="<u8")


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
    rows12, rows21 = compat_rows_reference(verts1, verts2, t), compat_rows_reference(verts2, verts1, t)
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


def sweep_cross_tuples(universe: int, size: int, r: int, t: int = 1) -> list[tuple[tuple[int, ...], ...]]:
    """All maximal r-tuples of pairwise cross-t-intersecting families of
    `size`-subsets of `universe` (ordered tuples; empty components allowed).
    Fixed points of the round-robin star map, swept over the first r-1
    components, which determine the last. Time 2^(V (r-1)) for V subsets."""
    verts = subsets(universe, size).masks
    V = len(verts)
    rows = compat_rows_reference(verts, verts, t)
    full = (1 << V) - 1
    fold = [full] * (1 << V)
    for s in range(1, 1 << V):
        low = s & -s
        fold[s] = fold[s & (s - 1)] & rows[low.bit_length() - 1]
    out = []
    for combo in product(range(1 << V), repeat=r - 1):
        last = full
        for s in combo:
            last &= fold[s]
        tup = combo + (last,)
        ok = True
        for i in range(r - 1):
            need = full
            for j, s in enumerate(tup):
                if j != i:
                    need &= fold[s]
            if need != tup[i]:
                ok = False
                break
        if ok:
            out.append(tuple(tuple(verts[i] for i in _bits(s)) for s in tup))
    return out


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


def _reference_round(cells: Cells, fam_members: Sequence[tuple[int, ...]], elem_members: Sequence[list[list[int]]], n: int) -> Cells:
    """One refinement round: each cell split by its elements' sorted colour
    tuples, the groups in signature order."""
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
    for cell in cells:
        if len(cell) == 1:
            new_cells.append(cell)
            continue
        groups: dict[tuple, list[int]] = {}
        for e in cell:
            groups.setdefault(sigs[e], []).append(e)
        for sig in sorted(groups):
            new_cells.append(tuple(groups[sig]))
    return tuple(new_cells)


def _reference_refine(cells: Cells, fam_members: Sequence[tuple[int, ...]], elem_members: Sequence[list[list[int]]], n: int) -> Cells:
    while True:
        refined = _reference_round(cells, fam_members, elem_members, n)
        if refined == cells:
            return cells
        cells = refined


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


def classify_fact_2_1_reference(F: Family, t: int) -> TemplateMatch:
    """`xfam.classify_fact_2_1` by canonical form: the family must be
    isomorphic to the generated simplex or star template."""
    if F.k != t + 1:
        raise ValueError(f"family must be (t+1)-uniform, got k={F.k} t={t}")
    if not is_maximal_t_intersecting(F, t):
        raise ValueError("family is not maximal t-intersecting")
    n = F.n
    degrees = [0] * (n + 1)
    for m in F.members:
        for e in elements_of(m):
            degrees[e] += 1
    form = canonical_form(F)
    if len(F) == t + 2 and max(degrees[1:]) <= t + 1:
        template = Family(n, t + 1, subsets(full_mask(t + 2), t + 1).masks)
        if form == canonical_form(template):
            return TemplateMatch(
                "F2.1-simplex", {"M": elements_of(F.union_mask())}, (("F2.1-simplex", {}),)
            )
    common = F.common_mask()
    if common.bit_count() >= t:
        template = anchored_family(n, t + 1, full_mask(t))
        if form == canonical_form(template):
            return TemplateMatch("F2.1-star", {"T": elements_of(common)}, (("F2.1-star", {}),))
    return _no_match()


def _is_maximal_residual_tuple(universe: int, size_each: list[int], tup: list[tuple[int, ...]]) -> bool:
    """Star fixed-point test for pairwise cross-intersecting residual tuples
    over a reduced universe (empty components star to the complete family)."""
    for i, members in enumerate(tup):
        others = [m for j, other in enumerate(tup) if j != i for m in other]
        expect = select(subsets(universe, size_each[i]), others, 1)
        if tuple(sorted(members)) != expect:
            return False
    return True


def _reference_match_i(F: Family, t: int, cover_union: int) -> list[tuple[str, dict]]:
    out = []
    for M0els in combinations(elements_of(cover_union), t + 2):
        M0 = mask_of(M0els)
        if _a_members(F.n, F.k, t, M0) == F.members:
            out.append(("T1.2-i", {"M": M0els}))
    return out


def _reference_match_ii(F: Family, t: int, cover_union: int) -> list[tuple[str, dict]]:
    out = []
    uels = elements_of(cover_union)
    for Tels in combinations(uels, t):
        Tm = mask_of(Tels)
        rest = [e for e in uels if not (Tm >> (e - 1)) & 1]
        for Xels in combinations(rest, F.k - t + 1):
            Xm = mask_of(Xels)
            if h_members_reference(F.n, F.k, Tm, Xm, Xm) == F.members:
                out.append(("T1.2-ii", {"T": Tels, "X": Xels}))
    return out


def _reference_match_iii(F: Family, t: int, covers: tuple[int, ...]) -> list[tuple[str, dict]]:
    n, k = F.n, F.k
    out = []
    for M in covers:
        mels = elements_of(M)
        residuals: list[list[int]] = [[] for _ in mels]
        ok = True
        for f in F.members:
            inter = f & M
            if inter == M:
                continue
            if inter.bit_count() != t:
                ok = False
                break
            i = mels.index(elements_of(M & ~inter)[0])
            residuals[i].append(f & ~M)
        if not ok:
            continue
        tup = [tuple(sorted(r)) for r in residuals]
        if sum(1 for r in tup if r) < 2:
            continue
        universe = full_mask(n) & ~M
        if not _is_maximal_residual_tuple(universe, [k - t] * len(tup), tup):
            continue
        if _iii_members(n, k, M, tuple(tup)) == F.members:
            witness = {"M": mels, "residual_sizes": tuple(len(r) for r in tup)}
            out.append(("T1.2-iii", witness))
    return out


def _reference_match_iv(F: Family, t: int, covers: tuple[int, ...], cover_union: int) -> list[tuple[str, dict]]:
    n, k = F.n, F.k
    cover_set = set(covers)
    out = []
    for Tels in combinations(elements_of(cover_union), t):
        Tm = mask_of(Tels)
        spokes = [
            e for e in elements_of(cover_union & ~Tm) if (Tm | (1 << (e - 1))) in cover_set
        ]
        for m in range(t + 2, k + 1):
            for Mx in combinations(spokes, m - t):
                Mm = Tm | mask_of(Mx)
                A: list[int] = []
                B_by_drop: dict[int, list[int]] = {e: [] for e in Tels}
                ok = True
                for f in F.members:
                    if Tm & ~f == 0:
                        if f & Mm == Tm:
                            A.append(f & ~Mm)
                        elif (f & Mm).bit_count() < t + 1:
                            ok = False
                            break
                    else:
                        inter = f & Mm
                        missing = elements_of(Mm & ~inter)
                        if len(missing) != 1 or missing[0] not in B_by_drop:
                            ok = False
                            break
                        B_by_drop[missing[0]].append(f & ~Mm)
                if not ok:
                    continue
                b_sets = {tuple(sorted(v)) for v in B_by_drop.values()}
                if len(b_sets) != 1:
                    continue
                B = b_sets.pop()
                if not B:
                    continue
                At = tuple(sorted(A))
                universe = full_mask(n) & ~Mm
                if not _is_maximal_residual_tuple(universe, [k - t, k - m + 1], [At, B]):
                    continue
                if iv_members_reference(n, k, t, Tm, Mm, At, B) == F.members:
                    witness = {
                        "T": Tels,
                        "M": elements_of(Mm),
                        "m": m,
                        "A_size": len(At),
                        "B_size": len(B),
                        "A_empty": not At,
                    }
                    out.append(("T1.2-iv", witness))
    return out


def match_theorem_1_2_reference(F: Family, t: int, cov: CoverStructure) -> TemplateMatch:
    """`xfam.match_theorem_1_2` by rebuilding: every candidate template is
    rebuilt over all k-sets and must equal F, and the residual tuples of the
    composite shapes must be maximal."""
    matches: list[tuple[str, dict]] = []
    matches += _reference_match_i(F, t, cov.union)
    matches += _reference_match_ii(F, t, cov.union)
    matches += _reference_match_iii(F, t, cov.covers)
    matches += _reference_match_iv(F, t, cov.covers, cov.union)
    if not matches:
        return _no_match()
    matches.sort(key=lambda m: TEMPLATE_ORDER.index(m[0]))
    return TemplateMatch(matches[0][0], matches[0][1], tuple(matches))


def classify_all_reference(n: int, k: int, t: int) -> tuple[int, list[tuple[Family, CoverStructure, TemplateMatch]]]:
    """The number of maximal t-intersecting families, and each one with
    covering number t+1 together with its covers and its match, in
    enumeration order: `classify-all` with the library `covering_number`."""
    fams = enumerate_maximal_t_intersecting(n, k, t)
    found = []
    for fam in fams:
        cov = covering_number(fam, t)
        if cov.tau == t + 1:
            found.append((fam, cov, match_theorem_1_2(fam, t, cov)))
    return len(fams), found


def _min_covers(n: int, t: int, verts: Sequence[int], cliques: Sequence[int]):
    """The blocks of the t- and (t+1)-set rows of `_cover_blocks` for
    `cliques`, each cut down to its tau = t+1 cliques: their masks, and a
    boolean matrix true where a (t+1)-set (in table order) is a minimum
    cover of the row's clique."""
    for chunk, (t_covers, covers) in _cover_blocks(n, t, (t, t + 1), verts)(cliques):
        keep = covers.any(axis=1) & ~t_covers.any(axis=1)
        yield [c for c, kept in zip(chunk, keep) if kept], covers[keep]


def maximal_with_tau_t_plus_1(n: int, k: int, t: int) -> tuple[int, list[tuple[Family, CoverStructure]]]:
    """The number of maximal t-intersecting k-uniform families over [n], and
    those with covering number t+1, sorted by members, each with its
    `covering_number(F, t)`, decoded from the minimum covers of the full
    walk (in table order)."""
    verts, cliques = maximal_cliques(n, k, t)
    plus = subsets(full_mask(n), t + 1).masks
    found = []
    for kept, covers in _min_covers(n, t, verts, cliques):
        for clique, row in zip(kept, covers):
            fam = Family(n, k, tuple([verts[i] for i in _bits(clique)]))
            mins = tuple([plus[j] for j in row.nonzero()[0].tolist()])
            found.append((fam, CoverStructure(t + 1, mins, reduce(or_, mins))))
    found.sort(key=lambda fc: fc[0].members)
    return len(cliques), found


def count_theorem_1_2_reference(n: int, k: int, t: int) -> tuple[int, int, dict[str, int]]:
    """`xfam.count_theorem_1_2` over every maximal family: the same lookups
    on the minimum covers of the full walk, each family counted once."""
    verts, cliques = maximal_cliques(n, k, t)
    found = iii = a_count = 0
    spokes = [0] * (n - t + 1)  # spokes[s]: the (family, t-set) pairs with s spokes
    for kept, covers in _min_covers(n, t, verts, cliques):
        if not kept:
            continue
        if not found:
            a_cols, spoke_cols = _anchor_columns(n, t)
        found += len(kept)
        iii += int(covers.sum())
        a_count += int(covers[:, a_cols].all(axis=2).sum())
        hist = np.bincount(covers[:, spoke_cols].sum(axis=2).ravel(), minlength=n - t + 1).tolist()
        spokes = [a + b for a, b in zip(spokes, hist)]
    counts = {
        "T1.2-i": a_count,
        "T1.2-ii": sum(c * comb(s, k - t + 1) for s, c in enumerate(spokes)),
        "T1.2-iii": iii,
        "T1.2-iv": sum(c * comb(s, m - t) for s, c in enumerate(spokes) for m in range(t + 2, k + 1)),
    }
    return len(cliques), found, {name: c for name, c in counts.items() if c}


def count_theorem_1_2_vertex_orbit(n: int, k: int, t: int) -> tuple[int, int, dict[str, int]]:
    """`xfam.count_theorem_1_2` through v0 = {1..k} alone: the same lookups
    on the minimum covers of the families through v0, each count C(n, k)
    times the sum of its per-family value divided by |F|."""
    verts, cliques = maximal_cliques(n, k, t, through=(full_mask(k),))
    blocks = _cover_blocks(n, t, (t, t + 1), verts)
    top, width = len(verts) + 1, n - t + 1
    every = np.bincount([c.bit_count() for c in cliques], minlength=top)
    found, iii, a_count = (np.zeros(top, dtype=np.int64) for _ in range(3))
    spokes = np.zeros(top * width, dtype=np.int64)  # (size, s): the (family, t-set) pairs with s spokes
    a_cols = spoke_cols = None
    for chunk, (t_covers, covers) in blocks(cliques):
        keep = covers.any(axis=1) & ~t_covers.any(axis=1)
        kept = [c for c, kept in zip(chunk, keep) if kept]
        if not kept:
            continue
        covers = covers[keep]
        if a_cols is None:
            a_cols, spoke_cols = _anchor_columns(n, t)
        sizes = np.array([c.bit_count() for c in kept])
        np.add.at(found, sizes, 1)
        np.add.at(iii, sizes, covers.sum(axis=1))
        np.add.at(a_count, sizes, covers[:, a_cols].all(axis=2).sum(axis=1))
        keys = sizes[:, None] * width + covers[:, spoke_cols].sum(axis=2)
        spokes += np.bincount(keys.ravel(), minlength=top * width)
    hist = spokes.reshape(top, width).tolist()

    def weigh(per_size) -> int:
        return _orbit_count(comb(n, k), enumerate(per_size))

    counts = {
        "T1.2-i": weigh(a_count.tolist()),
        "T1.2-ii": weigh([sum(c * comb(s, k - t + 1) for s, c in enumerate(row)) for row in hist]),
        "T1.2-iii": weigh(iii.tolist()),
        "T1.2-iv": weigh(
            [sum(c * comb(s, m - t) for s, c in enumerate(row) for m in range(t + 2, k + 1)) for row in hist]
        ),
    }
    return weigh(every.tolist()), weigh(found.tolist()), {name: c for name, c in counts.items() if c}


def extremal_product_search_reference(n: int, k1: int, k2: int, t: int, min_tau: int) -> SearchResult:
    """`xfam.extremal_product_search` over every maximal pair: the product
    groups of the full listing, decoded in enumeration order, both covering
    numbers from `covering_number`, and `pairs_examined` counted one by
    one."""
    validate_params(n, k1, t)
    validate_params(n, k2, t)
    pairs = [(fm, gm) for fm, gm in maximal_cross_tuples(full_mask(n), (k1, k2), t) if fm and gm]
    groups: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
    for fm, gm in pairs:
        groups.setdefault(len(fm) * len(gm), []).append((fm, gm))
    best = 0
    winners: list[tuple[Family, Family]] = []
    for product in sorted(groups, reverse=True):
        if product < best:
            break
        for fm, gm in groups[product]:
            f, g = Family(n, k1, fm), Family(n, k2, gm)
            if covering_number(f, t).tau >= min_tau and covering_number(g, t).tau >= min_tau:
                best = product
                winners.append((f, g))
    seen: set[bytes] = set()
    unique = []
    for f, g in winners:
        key = canonical_form(f)
        if key not in seen:
            seen.add(key)
            unique.append((f, g))
    return SearchResult(
        best_product=best,
        witnesses=unique,
        pairs_examined=len(pairs),
        at_proved_threshold=n >= n_threshold(k1, k2, t),
    )


def classify_pair_reference(F1: Family, F2: Family, t: int) -> TemplateMatch:
    """`xfam.classify_pair_theorem_1_1` by rebuilding both sides of every
    candidate pair template and comparing them with the input pair."""
    if not is_cross_t_intersecting(F1, F2, t):
        raise ValueError("pair is not cross t-intersecting")
    if not is_maximal_pair(F1, F2, t):
        raise ValueError("pair is not maximal")
    cov1, cov2 = covering_number(F1, t), covering_number(F2, t)
    if cov1.tau != t + 1 or cov2.tau != t + 1:
        raise ValueError("both covering numbers must equal t+1")
    n, k1, k2 = F1.n, F1.k, F2.k
    uu = cov1.union | cov2.union
    matches: list[tuple[str, dict]] = []

    for M0els in combinations(elements_of(uu), t + 2):
        M0 = mask_of(M0els)
        if _a_members(n, k1, t, M0) == F1.members and _a_members(n, k2, t, M0) == F2.members:
            matches.append(("T1.1-AA", {"M": M0els}))

    for Tels in combinations(elements_of(uu), t):
        Tm = mask_of(Tels)
        xs_pool = elements_of(cov1.union & ~Tm)
        ys_pool = elements_of(cov2.union & ~Tm)
        need = 1 if t == 1 else 2
        for Xels in combinations(xs_pool, k1 - t + 1):
            Xm = mask_of(Xels)
            for Yels in combinations(ys_pool, k2 - t + 1):
                Ym = mask_of(Yels)
                if (Xm & Ym).bit_count() < need:
                    continue
                if (
                    h_members_reference(n, k1, Tm, Xm, Ym) == F1.members
                    and h_members_reference(n, k2, Tm, Ym, Xm) == F2.members
                ):
                    matches.append(("T1.1-HH", {"T": Tels, "X": Xels, "Y": Yels}))

    for (ci, cj) in ((0, 1), (1, 0)):
        fam_c1, fam_c2 = (F1, F2)[ci], (F1, F2)[cj]
        cov_c2 = (cov1, cov2)[cj]
        for Pm in cov_c2.covers:
            rest = elements_of(uu & ~Pm)
            for Lx in combinations(rest, fam_c1.k - t):
                Lm = Pm | mask_of(Lx)
                if (
                    c1_members_reference(n, fam_c1.k, Pm, Lm) == fam_c1.members
                    and c2_members_reference(n, fam_c2.k, t, Pm, Lm) == fam_c2.members
                ):
                    witness = {
                        "P": elements_of(Pm),
                        "L": elements_of(Lm),
                        "order": "(C1,C2)" if ci == 0 else "(C2,C1)",
                    }
                    matches.append(("T1.1-CC", witness))

    if t == 1 and uu.bit_count() == 4:
        for quad in permutations(elements_of(uu)):
            a, b, c, d = quad
            if b_members_reference(n, k1, (a, c, b, d)) == F1.members and b_members_reference(
                n, k2, (a, b, c, d)
            ) == F2.members:
                matches.append(("T1.1-BB", {"quad": quad}))

    if not matches:
        return _no_match()
    return TemplateMatch(matches[0][0], matches[0][1], tuple(matches))


def verify_construction_reference(spec: ConstructionSpec, partner: ConstructionSpec, check_maximal: bool = True) -> dict:
    """Verify one pair: sizes match the closed forms, the pair is cross
    t-intersecting, both covering numbers equal t+1, and (measured, not
    required) the pair is a closure fixed point."""
    t = spec.t
    F, G = spec.build(), partner.build()
    cov_f: CoverStructure = covering_number(F, t)
    cov_g: CoverStructure = covering_number(G, t)
    checks = {
        "size_first": len(F) == spec.closed_form(),
        "size_second": len(G) == partner.closed_form(),
        "cross_intersecting": is_cross_t_intersecting(F, G, t),
        "tau_first": cov_f.tau == t + 1,
        "tau_second": cov_g.tau == t + 1,
    }
    report = {
        "first": {"kind": spec.kind, "n": spec.n, "k": spec.k, "t": t, "size": len(F)},
        "second": {"kind": partner.kind, "n": partner.n, "k": partner.k, "t": t, "size": len(G)},
        "checks": checks,
        "pass": all(checks.values()),
    }
    if check_maximal:
        report["maximal_measured"] = is_maximal_pair(F, G, t)
    return report


def audit_42iv_reference(t: int, k: int, l: int, n: int) -> list[AuditPoint]:
    params = {"t": t, "k": k, "l": l, "n": n}
    cap = max(2 * (l - t + 1), (t + 1) * (l - t) + 1, l + 1, t + 2, 4)
    worst_gap, worst = None, None
    for m in range(1, cap + 1):
        gm = tilde_g(m, k, l, t, n)
        for mp in range(1, cap + 1):
            lhs = gm * tilde_g(mp, l, k, t, n)
            rhs = (m + Fraction(1, 16)) * (mp + Fraction(1, 16))
            if lhs > rhs:
                return [_point({**params, "m": m, "m'": mp}, False, lhs, rhs)]
            gap = rhs - lhs
            if worst_gap is None or gap < worst_gap:
                worst_gap, worst = gap, (lhs, rhs, m, mp)
    assert worst is not None
    return [_point({**params, "m": worst[2], "m'": worst[3], "m_max": cap}, True, worst[0], worst[1])]


def jsonable_reference(value):
    """`value` with each Fraction as "p/q" and each int of 2^53 or more in
    size as a decimal string, ready for json.dumps."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int) and abs(value) >= 2**53:
        return str(value)
    if isinstance(value, dict):
        return {k: jsonable_reference(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable_reference(v) for v in value]
    return value
