"""Template matching for maximal families with covering number t+1.

A maximal t-intersecting family whose minimum t-covers have size t+1 realizes
at least one of four shapes; the matcher recovers candidate anchors from the
cover collection (the anchors are cover-determined, so no blind permutation
search is needed) and reports every template instance that contains the
input family. Overlapping matches are data, not errors: all of them are
returned.

Containment is enough, and no template is ever built: if F is maximal
t-intersecting, T is t-intersecting and F is a subset of T, then F = T,
because every member of T meets all of F in at least t elements. The pair
templates work the same way: a maximal cross pair inside a
cross-t-intersecting template pair equals it. Containment is in turn read
off the minimum covers (all of size t+1):
  A(M0)       - every M0 - e is a cover;
  H(T, X, Y)  - every T + x with x in X is a cover (T1.2-ii is Y = X);
  T1.2-iii    - every cover M is an anchor;
  T1.2-iv     - every T + spokes is an anchor, the spokes x making T + x a
                cover;
  C1(P, L)    - P and every P - e + x with x in L - P cover the C1 side, and
                P covers the C2 side;
  B(a1..a4)   - {a2,a3}, {a2,a4} and {a1,a3} are covers.
The proof of each sits beside its test. Members are read only to count the
residual sizes of T1.2-iii and T1.2-iv.

`count_theorem_1_2`, behind `classify-all`, applies the same lookups to
many families at once, as ANDs and sums of columns of the minimum covers it
reads off the t- and (t+1)-set rows of `enumeration._cover_blocks` (the
columns in the order `_anchor_columns` indexes), decoding no family. It
walks only the families through one edge (v0, w_j) of each orbit of S_n on
ordered edges, v0 = {1..k}, and weighs each by the orbit's size over
|F|(|F|-1), the ordered pairs of distinct members it holds (see
`enumeration`). The matcher, and the same lookups over the full walk and
over the one walk through v0, are its test oracles.

`theorem_1_2_instances` generates every template instance at canonical
anchor positions, which gives the enumeration tests an independent second
code path. Its T1.2-iii residual tuples and T1.2-iv residual pairs come from
`enumeration.maximal_cross_tuples`, the kernel that also lists the maximal
pairs of Theorem 1.1: the maximal cliques of a coloured graph on the pairs
(colour, residual), walked by the one Bron-Kerbosch under the one budget of
`enumeration`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, compress, permutations
from math import comb, perm

import numpy as np

from .core import (
    CoverStructure,
    Family,
    covering_number,
    elements_of,
    full_mask,
    is_cross_t_intersecting,
    is_maximal_pair,
    is_maximal_t_intersecting,
    mask_of,
    select,
    subsets,
    validate_params,
)
from .constructions import _a_members, _h_members
from .enumeration import _cover_blocks, _meeting, _orbit_count, maximal_cliques, maximal_cross_tuples

TEMPLATE_ORDER = ("T1.2-i", "T1.2-ii", "T1.2-iii", "T1.2-iv")


@dataclass(frozen=True)
class TemplateMatch:
    """Which template(s) a family realizes, with witness parameters."""

    template: str
    witnesses: dict
    all_matches: tuple[tuple[str, dict], ...] = field(default_factory=tuple)

    @property
    def matched(self) -> bool:
        return self.template != "none"


def _no_match() -> TemplateMatch:
    return TemplateMatch("none", {}, ())


# ---------------------------------------------------------------------------
# concrete template instances at arbitrary anchors (the shapes shared with the
# constructions are built by their member builders)


def _iii_members(n: int, k: int, M: int, residuals: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    mels = elements_of(M)
    out = {M | m for m in subsets(full_mask(n) & ~M, k - len(mels)).masks}  # the k-sets holding M
    for i, e in enumerate(mels):
        anchor = M ^ (1 << (e - 1))
        out |= {anchor | a for a in residuals[i]}
    return tuple(sorted(out))


def _iv_members(
    n: int, k: int, t: int, Tm: int, Mm: int, A: tuple[int, ...], B: tuple[int, ...]
) -> tuple[int, ...]:
    # the base is the k-sets holding T and meeting M - T: those meeting T,
    # and every M - e (e in T) beyond T - e, in t elements
    drops = [Mm ^ (1 << (e - 1)) for e in elements_of(Tm)]
    out = set(select(subsets(full_mask(n), k), [Tm, *drops], t))
    out |= {Tm | a for a in A}
    out |= {drop | b for drop in drops for b in B}
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# the classifiers
#
# Anchor searches walk element tuples from `combinations`, not the mask-ordered
# table in `core`: their order is the order in which witnesses are reported.


def classify_fact_2_1(F: Family, t: int) -> TemplateMatch:
    """Simplex-or-star decision for maximal t-intersecting (t+1)-uniform
    families. Both shapes are t-intersecting, so containment decides them:
    F lies in the simplex on its union iff that union has t+2 elements, and
    in the star of a t-subset of its common part iff that part has t."""
    if F.k != t + 1:
        raise ValueError(f"family must be (t+1)-uniform, got k={F.k} t={t}")
    if not is_maximal_t_intersecting(F, t):
        raise ValueError("family is not maximal t-intersecting")
    union = F.union_mask()
    if union.bit_count() == t + 2:
        return TemplateMatch("F2.1-simplex", {"M": elements_of(union)}, (("F2.1-simplex", {}),))
    common = F.common_mask()
    if common.bit_count() >= t:
        return TemplateMatch("F2.1-star", {"T": elements_of(common)}, (("F2.1-star", {}),))
    return _no_match()


def _a_anchors(t: int, covers: frozenset[int], union: int) -> list[tuple[int, ...]]:
    # F lies in A(M0) iff every M0 - e is a cover: a member meets M0 in at
    # least t+1 elements iff it meets each M0 - e in at least t
    return [
        M0els
        for M0els in combinations(elements_of(union), t + 2)
        if all(mask_of(M0els) ^ (1 << (e - 1)) in covers for e in M0els)
    ]


def _spokes(Tm: int, covers: frozenset[int], union: int) -> list[int]:
    """The elements x outside T for which T + x is a cover."""
    return [e for e in elements_of(union & ~Tm) if (Tm | (1 << (e - 1))) in covers]


def _match_iii(F: Family, t: int, covers: tuple[int, ...]) -> list[tuple[str, dict]]:
    # Every minimum cover M is a match. M is a (t+1)-cover, so each member
    # holds M or all of M but one element, and the residual classes are the
    # members missing each element; the template they span contains F. At
    # least two classes are non-empty, or M minus one element would be a
    # t-cover.
    out = []
    for M in covers:
        missed = Counter(M & ~f for f in F.members)
        mels = elements_of(M)
        sizes = tuple(missed[1 << (e - 1)] for e in mels)
        out.append(("T1.2-iii", {"M": mels, "residual_sizes": sizes}))
    return out


def _match_ii_iv(F: Family, t: int, covers: frozenset[int], cover_union: int) -> list[tuple[str, dict]]:
    # Every candidate M = T + spokes is a T1.2-iv match. A member meets each
    # cover T + x in at least t elements, so it holds T, or misses one
    # element of T and holds every spoke: the template at (T, M) contains F.
    # Some member misses T, or T would be a t-cover; each residual of B comes
    # once per element of T.
    # At m = k+1 the spokes X give T1.2-ii: the members missing an element of
    # T are the specials X + T - e, and one exists, as T is no t-cover; each
    # member holding T meets it in t elements, so meets X.
    out = []
    for Tels in combinations(elements_of(cover_union), t):
        Tm = mask_of(Tels)
        spokes = _spokes(Tm, covers, cover_union)
        if len(spokes) < 2:  # every anchor takes m - t >= 2 spokes
            continue
        dropped = sum(1 for f in F.members if Tm & ~f)
        for m in range(t + 2, F.k + 2):
            for Mx in combinations(spokes, m - t):
                if m > F.k:
                    out.append(("T1.2-ii", {"T": Tels, "X": Mx}))
                    continue
                Mm = Tm | mask_of(Mx)
                a_size = sum(1 for f in F.members if f & Mm == Tm)
                witness = {
                    "T": Tels,
                    "M": elements_of(Mm),
                    "m": m,
                    "A_size": a_size,
                    "B_size": dropped // t,
                    "A_empty": not a_size,
                }
                out.append(("T1.2-iv", witness))
    return out


def classify_theorem_1_2(F: Family, t: int) -> TemplateMatch:
    """Match a maximal t-intersecting family with covering number t+1 against
    the four structure templates; returns every template instance equal to
    the family. Checks both preconditions, then `match_theorem_1_2`."""
    if not is_maximal_t_intersecting(F, t):
        raise ValueError("family is not maximal")
    cov = covering_number(F, t)
    if cov.tau != t + 1:
        raise ValueError(f"covering number is {cov.tau}, need t+1 = {t + 1}")
    return match_theorem_1_2(F, t, cov)


def match_theorem_1_2(F: Family, t: int, cov: CoverStructure) -> TemplateMatch:
    """The matching step of `classify_theorem_1_2`, unchecked: the caller
    guarantees that F is maximal t-intersecting, `cov == covering_number(F, t)`
    and `cov.tau == t + 1`.

    A template instance is reported when it contains F, which under this
    contract means it equals F: if F is maximal t-intersecting, T is
    t-intersecting and F is a subset of T, then F = T, since every member of
    T meets all of F in at least t elements. On other input the result is
    meaningless, and shapes may be reported that a full rebuild rejects:
    none of the four instances of `theorem_1_2_instances(6, 4, 2)` is
    maximal, and in three of them T1.2-iii or T1.2-iv anchors are reported
    that the rebuild rejects."""
    covers = frozenset(cov.covers)
    matches: list[tuple[str, dict]] = [("T1.2-i", {"M": M0els}) for M0els in _a_anchors(t, covers, cov.union)]
    matches += _match_ii_iv(F, t, covers, cov.union)
    matches += _match_iii(F, t, cov.covers)
    if not matches:
        return _no_match()
    matches.sort(key=lambda m: TEMPLATE_ORDER.index(m[0]))
    return TemplateMatch(matches[0][0], matches[0][1], tuple(matches))


def _anchor_columns(n: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Column indices into the (t+1)-subsets of [n] in table order, the
    columns of the (t+1)-set cover rows of `_cover_blocks`: row i of the
    first array holds the sets M0 - e of the i-th (t+2)-set M0, row i of
    the second the sets T + x (x outside T) of the i-th t-set T. An anchor
    of either kind lies inside the union of the covers it reads, so scanning
    all of [n] matches the matcher's candidates, which come from that union."""
    full = full_mask(n)
    column = {M: j for j, M in enumerate(subsets(full, t + 1).masks)}
    m0s = subsets(full, t + 2).masks
    a_cols = [column[M0 ^ (1 << (e - 1))] for M0 in m0s for e in elements_of(M0)]
    ts = subsets(full, t).masks
    spoke_cols = [column[T | 1 << (x - 1)] for T in ts for x in elements_of(full & ~T)]
    return (
        np.array(a_cols, dtype=np.intp).reshape(len(m0s), t + 2),
        np.array(spoke_cols, dtype=np.intp).reshape(len(ts), n - t),
    )


def count_theorem_1_2(n: int, k: int, t: int) -> tuple[int, int, dict[str, int]]:
    """The number of maximal t-intersecting k-uniform families over [n], the
    number of those with covering number t+1, and, per template, the
    `match_theorem_1_2(F, t, covering_number(F, t)).all_matches` entries
    summed over the latter (templates counted 0 are left out). Each rule
    counts the anchors its matcher accepts, off the minimum covers of the
    families walked.

    Every count is a sum of an S_n-invariant g(F). S_n has one orbit on
    ordered pairs of distinct t-intersecting k-sets for each j in t..k-1,
    the size of their intersection; from v0 = {1..k} it reaches the
    |O_j| = C(k,j) C(n-k,k-j) k-sets meeting v0 in j elements, w_j the
    first in table order. Counting the ordered pairs of distinct members of each family,
    the count is C(n, k) times the sum over j of |O_j| times the sum of
    g(F)/(|F|(|F|-1)) over the families through v0 and w_j. With no such
    pair (t = k or k = n), {v0} is the one family through v0 and the count
    is C(n, k) g({v0}). Each walk keeps its sums per family size as exact
    integers, the walks share one clique budget, and `_orbit_count` weighs
    all their terms at once: only the total must be an integer."""
    validate_params(n, k, t)
    v0 = full_mask(k)
    # w_j holds [j] and the k - j elements after v0, the first such k-set
    walks = [
        ((v0, full_mask(j) | full_mask(k - j) << k), size) for j, size in _meeting(full_mask(n), v0, k, t) if j < k
    ]
    terms: list[list[tuple[int, int]]] = [[] for _ in range(2 + len(TEMPLATE_ORDER))]
    walked = 0
    a_cols = spoke_cols = None
    for through, orbit in walks or [((v0,), 1)]:
        verts, cliques = maximal_cliques(n, k, t, through, walked)
        walked += len(cliques)
        top, width = len(verts) + 1, n - t + 1
        every = np.bincount([c.bit_count() for c in cliques], minlength=top)
        found, iii, a_count = (np.zeros(top, dtype=np.int64) for _ in range(3))
        spokes = np.zeros(top * width, dtype=np.int64)  # (size, s): the (family, t-set) pairs with s spokes
        for chunk, (t_covers, covers) in _cover_blocks(n, t, (t, t + 1), verts)(cliques):
            # tau = t+1 iff some (t+1)-set covers the family and no t-set does;
            # then the (t+1)-covers are all the minimum covers. They lie inside
            # the union of the family, since a cover element outside it could be
            # dropped, so scanning all of [n] matches the library's candidates.
            keep = covers.any(axis=1) & ~t_covers.any(axis=1)
            kept = list(compress(chunk, keep.tolist()))
            if not kept:
                continue
            covers = covers[keep]
            if a_cols is None:
                # indexed at the first family only: with k = n there is none, and
                # C(n, t+2) may be far larger than the budget-checked cover rows
                a_cols, spoke_cols = _anchor_columns(n, t)
            sizes = np.array([c.bit_count() for c in kept])
            np.add.at(found, sizes, 1)
            # T1.2-iii (_match_iii): every minimum cover is an anchor
            np.add.at(iii, sizes, covers.sum(axis=1))
            # T1.2-i (_a_anchors): M0 is an anchor iff every M0 - e is a cover
            np.add.at(a_count, sizes, covers[:, a_cols].all(axis=2).sum(axis=1))
            # (_spokes): the spokes of T are the x outside T with T + x a cover
            keys = sizes[:, None] * width + covers[:, spoke_cols].sum(axis=2)
            spokes += np.bincount(keys.ravel(), minlength=top * width)
        hist = spokes.reshape(top, width).tolist()
        # T1.2-ii (_match_ii_iv at m = k+1): every choice of k-t+1 spokes of T;
        # T1.2-iv (_match_ii_iv at m = t+2..k): every choice of m-t spokes of T.
        # All families, those with tau = t+1, then the templates in order
        per_size = (
            every.tolist(),
            found.tolist(),
            a_count.tolist(),
            [sum(c * comb(s, k - t + 1) for s, c in enumerate(row)) for row in hist],
            iii.tolist(),
            [sum(c * comb(s, m - t) for s, c in enumerate(row) for m in range(t + 2, k + 1)) for row in hist],
        )
        for term, counts in zip(terms, per_size):
            # a family of size s holds perm(s, len(through)) ordered tuples of distinct members
            term += [(perm(s, len(through)), orbit * c) for s, c in enumerate(counts) if c]
    total, found_total, *counts = (_orbit_count(comb(n, k), term) for term in terms)
    return total, found_total, {name: c for name, c in zip(TEMPLATE_ORDER, counts) if c}


def classify_pair_theorem_1_1(F1: Family, F2: Family, t: int) -> TemplateMatch:
    """Match a maximal cross-t-intersecting pair (covering number t+1 on both
    sides) against the four extremal pair templates, trying both orders. A
    template pair is reported when it contains the pair side by side; every
    template pair is cross-t-intersecting, so for the maximal pair checked
    here that means equality."""
    if not is_cross_t_intersecting(F1, F2, t):
        raise ValueError("pair is not cross t-intersecting")
    if not is_maximal_pair(F1, F2, t):
        raise ValueError("pair is not maximal")
    cov1, cov2 = covering_number(F1, t), covering_number(F2, t)
    if cov1.tau != t + 1 or cov2.tau != t + 1:
        raise ValueError("both covering numbers must equal t+1")
    k1, k2 = F1.k, F2.k
    c1, c2 = frozenset(cov1.covers), frozenset(cov2.covers)
    uu = cov1.union | cov2.union
    matches: list[tuple[str, dict]] = [("T1.1-AA", {"M": M0els}) for M0els in _a_anchors(t, c1 & c2, uu)]

    # F1 lies in H(T, X, Y) and F2 in H(T, Y, X) iff every T + x (x in X)
    # covers F1 and every T + y (y in Y) covers F2: a member missing an
    # element of T then holds X, a special; T is no t-cover of the partner,
    # so it has a special, and each member holding T meets it, hence meets Y
    need = 1 if t == 1 else 2
    for Tels in combinations(elements_of(uu), t):
        Tm = mask_of(Tels)
        ys = _spokes(Tm, c2, cov2.union)
        for Xels in combinations(_spokes(Tm, c1, cov1.union), k1 - t + 1):
            Xm = mask_of(Xels)
            for Yels in combinations(ys, k2 - t + 1):
                if (Xm & mask_of(Yels)).bit_count() >= need:
                    matches.append(("T1.1-HH", {"T": Tels, "X": Xels, "Y": Yels}))

    # The C1 side lies in C1(P, L) iff P and every P - e + x (e in P, x in
    # L - P) cover it: a member missing e in P holds each x, by the cover
    # P - e' + x with e' != e, so it is L - e. Then the C2 side lies in
    # C2(P, L): P covers it, and tau = t+1 leaves the C1 side two specials
    # L - e1, L - e2; a C2 member missing e in P shares t-1 elements of P
    # with the one where ei != e, so it meets L - P.
    for (ci, cj) in ((0, 1), (1, 0)):
        k_c1, covers_c1 = (k1, k2)[ci], (c1, c2)[ci]
        for Pm in (cov1, cov2)[cj].covers:
            if Pm not in covers_c1:
                continue
            Pels = elements_of(Pm)
            swaps = [
                x
                for x in elements_of(uu & ~Pm)
                if all((Pm ^ (1 << (e - 1))) | (1 << (x - 1)) in covers_c1 for e in Pels)
            ]
            for Lx in combinations(swaps, k_c1 - t):
                witness = {
                    "P": Pels,
                    "L": elements_of(Pm | mask_of(Lx)),
                    "order": "(C1,C2)" if ci == 0 else "(C2,C1)",
                }
                matches.append(("T1.1-CC", witness))

    # F lies in B(a1, a2, a3, a4) iff {a2,a3}, {a2,a4} and {a1,a3} cover it:
    # a member holding a2 meets {a1,a3}, and one without a2 holds a3 and a4.
    # F1 is tested at (a, c, b, d), F2 at (a, b, c, d).
    if t == 1 and uu.bit_count() == 4:
        for quad in permutations(elements_of(uu)):
            a, b, c, d = (1 << (e - 1) for e in quad)
            if {b | c, c | d, a | b} <= c1 and {b | c, b | d, a | c} <= c2:
                matches.append(("T1.1-BB", {"quad": quad}))

    # each route enumerates its full anchor tuple once, so no entry repeats
    if not matches:
        return _no_match()
    return TemplateMatch(matches[0][0], matches[0][1], tuple(matches))


# ---------------------------------------------------------------------------
# template instance generation (the independent path for the two-way check)


def theorem_1_2_instances(n: int, k: int, t: int) -> list[tuple[Family, str, dict]]:
    """Every template instance at canonical anchor positions: the two rigid
    shapes, plus one family per maximal residual tuple for the composite
    shapes (anchor at the lowest indices, residual tuples enumerated
    exhaustively over the reduced universe). The member builders return
    sorted unions of k-subsets, so the families are not checked again."""
    if k < t + 2:
        raise ValueError("templates need k >= t+2")
    out: list[tuple[Family, str, dict]] = []
    a_members = _a_members(n, k, t, full_mask(t + 2))
    out.append((Family.from_table(n, k, a_members), "T1.2-i", {"M": tuple(range(1, t + 3))}))
    Tm = full_mask(t)
    Xm = mask_of(range(t + 1, k + 2))
    out.append(
        (
            Family.from_table(n, k, _h_members(n, k, Tm, Xm, Xm)),
            "T1.2-ii",
            {"T": tuple(range(1, t + 1)), "X": tuple(range(t + 1, k + 2))},
        )
    )
    M = full_mask(t + 1)
    universe = full_mask(n) & ~M
    for tup in maximal_cross_tuples(universe, (k - t,) * (t + 1)):
        if sum(1 for r in tup if r) < 2:
            continue
        fam = Family.from_table(n, k, _iii_members(n, k, M, tup))
        out.append((fam, "T1.2-iii", {"M": tuple(range(1, t + 2)), "residual_sizes": tuple(len(r) for r in tup)}))
    for m in range(t + 2, k + 1):
        Mm = full_mask(m)
        universe = full_mask(n) & ~Mm
        for A, B in maximal_cross_tuples(universe, (k - t, k - m + 1)):
            if not B:
                continue
            fam = Family.from_table(n, k, _iv_members(n, k, t, full_mask(t), Mm, A, B))
            out.append(
                (
                    fam,
                    "T1.2-iv",
                    {"m": m, "A_size": len(A), "B_size": len(B), "A_empty": not A},
                )
            )
    return out
