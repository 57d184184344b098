import random

import pytest

from helpers import (
    b_members_reference,
    c1_members_reference,
    c2_members_reference,
    d_members_reference,
    h_members_reference,
    iv_members_reference,
    verify_construction_reference,
)
from xfam import (
    Family,
    anchored_family,
    canonical_form,
    canonical_form_tuple,
    construct_A,
    construct_B,
    construct_C1,
    construct_C2,
    construct_D,
    construct_H,
    construction_pair,
    covering_number,
    elements_of,
    full_mask,
    is_cross_t_intersecting,
    mask_of,
    verify_construction,
)
from xfam.classify import _iv_members
from xfam.constructions import (
    PAIR_KINDS,
    ConstructionSpec,
    _a_members,
    _b_members,
    _c1_members,
    _c2_members,
    _h_members,
    _verify,
    default_D_anchors,
    default_grid,
)
from xfam import core
from xfam.core import is_maximal_pair, select, subsets
from xfam.formulas import binom, eval_a, eval_c1, eval_c2, eval_h


def test_A_examples():
    assert set(construct_A(6, 2, 1).to_sets()) == {(1, 2), (1, 3), (2, 3)}
    a = construct_A(6, 3, 2)
    assert set(a.to_sets()) == {s for s in Family.complete(4, 3).to_sets()}
    assert len(construct_A(7, 3, 1)) == eval_a(3, 1, 7) == 13


def test_A_union_of_intervals_cross_check():
    # second generation path: union of (t+1)-anchored intervals inside [t+2]
    from itertools import combinations

    for (n, k, t) in [(7, 3, 1), (8, 4, 2), (9, 5, 3), (10, 4, 1)]:
        members = set()
        for anchor in combinations(range(1, t + 3), t + 1):
            members |= set(anchored_family(n, k, mask_of(anchor)).members)
        assert sorted(members) == list(construct_A(n, k, t).members)


@pytest.mark.parametrize(
    "builder, reference, n, k, anchors",
    [
        (_b_members, b_members_reference, 7, 3, ((1, 2, 3, 4),)),
        (_b_members, b_members_reference, 7, 3, ((1, 3, 2, 4),)),
        (_b_members, b_members_reference, 8, 3, ((5, 2, 6, 3),)),
        (_c2_members, c2_members_reference, 7, 3, (1, full_mask(2), full_mask(4))),
        (_c2_members, c2_members_reference, 8, 4, (2, mask_of((2, 5, 7)), mask_of((1, 2, 3, 5, 7)))),
    ],
    ids=["B", "B-partner", "B-moved", "C2", "C2-moved"],
)
def test_predicate_equals_builder(builder, reference, n, k, anchors):
    assert builder(n, k, *anchors) == reference(n, k, *anchors)


def _sample(rng: random.Random, pool: list[int], size: int) -> int:
    """Mask of `size` elements drawn from `pool`."""
    return mask_of(rng.sample(pool, size))


def _d_members(n: int, k: int, t: int, T: tuple[int, ...], xs: tuple[int, int, int, int]) -> tuple[int, ...]:
    return construct_D(n, k, t, T, xs).members


def _anchor_cases(seed: int = 20261018):
    """(name, builder, reference, args) over n <= 11, t <= 3 and every valid
    k and l, each at anchors placed by a seeded random permutation of [n]."""
    rng = random.Random(seed)
    for n in range(4, 12):
        for t in range(1, 4):
            for k in range(t + 1, n + 1):
                els = rng.sample(range(1, n + 1), n)
                if t == 1:
                    quad = tuple(els[:4])
                    yield "B", _b_members, b_members_reference, (n, k, quad)
                if n >= t + 3:
                    T, xs = tuple(els[: t - 1]), tuple(els[t - 1 : t + 3])
                    yield "D", _d_members, d_members_reference, (n, k, t, T, xs)
                for l in range(t + 1, n):
                    P = _sample(rng, els, t + 1)
                    L = P | _sample(rng, [e for e in els if not P >> (e - 1) & 1], l - t)
                    if k == l:
                        yield "C1", _c1_members, c1_members_reference, (n, l, P, L)
                    yield "C2", _c2_members, c2_members_reference, (n, k, t, P, L)
                    h = _h_anchors(rng, els, k, l, t)
                    if h is not None:
                        yield "H", _h_members, h_members_reference, (n, k, *h)
                T = _sample(rng, els, t)
                rest = [e for e in els if not T >> (e - 1) & 1]
                for m in range(t + 2, k + 1):
                    M = T | _sample(rng, rest, m - t)
                    outside = [e for e in els if not M >> (e - 1) & 1]
                    A = tuple(sorted({_sample(rng, outside, k - t) for _ in range(2) if len(outside) >= k - t}))
                    B = tuple(sorted({_sample(rng, outside, k - m + 1) for _ in range(2) if len(outside) >= k - m + 1}))
                    yield "iv", _iv_members, iv_members_reference, (n, k, t, T, M, A, B)


def _h_anchors(rng: random.Random, els: list[int], k: int, l: int, t: int):
    """(T, X, Y) for H at |X| = k-t+1 and |Y| = l-t+1, with at least the
    overlap the partner needs (one at t = 1, two otherwise), or None when
    [n] has no room."""
    T = _sample(rng, els, t)
    rest = [e for e in els if not T >> (e - 1) & 1]
    x, y = k - t + 1, l - t + 1
    low = max(1 if t == 1 else 2, x + y - len(rest))
    if low > min(x, y):
        return None
    common = rng.randint(low, min(x, y))
    X = rng.sample(rest, x)
    Y = rng.sample(X, common) + rng.sample([e for e in rest if e not in X], y - common)
    return T, mask_of(X), mask_of(Y)


def test_anchor_builders_equal_references():
    # every builder is a `select` over its anchor sets; the filter builders
    # it replaced are the oracle, at permuted anchors and the edge cases
    # t = 1, l = t+1 and k = t+1
    seen = set()
    for name, builder, reference, args in _anchor_cases():
        assert builder(*args) == reference(*args), (name, args)
        seen.add(name)
    assert seen == {"B", "C1", "C2", "H", "D", "iv"}


def _bit(e: int) -> int:
    return 1 << (e - 1)


@pytest.mark.parametrize(
    "kind, n, k, t, anchors",
    [
        ("A", 7, 3, 1, (full_mask(3),)),
        ("A", 8, 4, 2, (mask_of((2, 4, 5, 7)),)),
        ("B", 7, 3, 1, ((1, 2, 3, 4),)),
        ("B", 7, 3, 1, ((1, 3, 2, 4),)),
        ("B", 8, 3, 1, ((5, 2, 6, 3),)),
        ("C1", 7, 3, 1, (full_mask(2), full_mask(4))),
        ("C1", 8, 4, 2, (mask_of((2, 5, 7)), mask_of((1, 2, 3, 5, 7)))),
        ("H", 7, 3, 1, (full_mask(1), mask_of((2, 3, 4)), mask_of((2, 3)))),
        ("H", 8, 4, 2, (mask_of((3, 6)), mask_of((1, 2, 5)), mask_of((2, 5, 8)))),
        ("D", 7, 3, 1, ((), (1, 2, 3, 4))),
        ("D", 9, 4, 3, ((7, 2), (5, 1, 8, 3))),
    ],
    ids=["A", "A-moved", "B", "B-partner", "B-moved", "C1", "C1-moved", "H", "H-moved", "D", "D-moved"],
)
def test_cover_lemma(kind, n, k, t, anchors):
    # the matchers in `classify` accept an anchor when its required
    # (t+1)-sets are minimum covers; the k-sets meeting all of them in at
    # least t elements are the template (for H: the k-sets holding T plus
    # the specials, as meeting Y is forced by the partner)
    table = subsets(full_mask(n), k)
    # the expected families come from the filter builders in `helpers`, so
    # no builder is compared with the `select` it is made of (A's builder
    # selects over M0 at t+1, not over its covers)
    if kind == "A":
        (M0,) = anchors
        required = [M0 ^ _bit(e) for e in elements_of(M0)]
        template = expected = _a_members(n, k, t, M0)
    elif kind == "B":
        a1, a2, a3, a4 = (_bit(e) for e in anchors[0])
        required = [a2 | a3, a2 | a4, a1 | a3]
        template = _b_members(n, k, anchors[0])
        expected = b_members_reference(n, k, anchors[0])
    elif kind == "C1":
        Pm, Lm = anchors
        swaps = [(Pm ^ _bit(e)) | _bit(x) for e in elements_of(Pm) for x in elements_of(Lm & ~Pm)]
        required = [Pm] + swaps
        template = _c1_members(n, k, Pm, Lm)
        expected = c1_members_reference(n, k, Pm, Lm)
    elif kind == "D":
        T, xs = anchors
        tm = mask_of(T)
        x1, x2, x3, x4 = (_bit(x) for x in xs)
        required = [tm | x1 | x2, tm | x3 | x4, tm | x2 | x3]
        template = construct_D(n, k, t, T, xs).members
        expected = d_members_reference(n, k, t, T, xs)
    else:
        Tm, Xm, Ym = anchors
        required = [Tm | _bit(x) for x in elements_of(Xm)]
        specials = {Xm | (Tm ^ _bit(e)) for e in elements_of(Tm)}
        expected = tuple(sorted({f for f in table.masks if Tm & ~f == 0} | specials))
        template = _h_members(n, k, Tm, Xm, Ym)
    assert select(table, required, t) == expected
    assert set(required) <= set(covering_number(Family(n, k, template), t).covers)


def test_B_examples_and_inclusion_exclusion():
    assert set(construct_B(6, 2, (1, 2, 3, 4)).to_sets()) == {(1, 2), (2, 3), (3, 4)}
    for (n, k) in [(6, 3), (8, 3), (9, 4), (10, 5)]:
        b = construct_B(n, k, (1, 2, 3, 4))
        assert len(b) == eval_a(k, 1, n)
        assert len(b) == 3 * binom(n - 2, k - 2) - 2 * binom(n - 3, k - 3)
    with pytest.raises(ValueError):
        construct_B(6, 2, (1, 2, 2, 4))


def test_C_examples():
    c1 = construct_C1(6, 3, 1)
    assert len(c1) == eval_c1(3, 1, 6) == 6
    assert set(c1.to_sets()) >= {(2, 3, 4), (1, 3, 4)}
    c2 = construct_C2(6, 2, 1, 3)
    assert len(c2) == eval_c2(2, 3, 1, 6) == 5
    assert is_cross_t_intersecting(c1, c2, 1)


def test_H_examples():
    h = construct_H(6, 2, 1, (2, 3), (3, 4))
    assert set(h.to_sets()) == {(1, 3), (1, 4), (2, 3)}
    assert len(h) == eval_h(2, 2, 1, 6) == 3
    with pytest.raises(ValueError):
        construct_H(6, 2, 1, (2, 3), (4, 5))  # empty overlap
    with pytest.raises(ValueError):
        construct_H(6, 3, 2, (3, 4), (4, 5))  # overlap 1 < 2 at t=2
    with pytest.raises(ValueError):
        construct_H(6, 3, 1, (2, 3), (2, 4))  # |X| != k-t+1
    with pytest.raises(ValueError):
        construct_H(6, 2, 1, (1, 3), (3, 4))  # X touches [t]
    # a repeated element of Y: built, it held 12 members where the closed
    # form, which reads |Y| = 3, says 16
    with pytest.raises(ValueError, match="must not repeat an element"):
        ConstructionSpec("H", 8, 3, 1, X=(2, 3, 4), Y=(2, 3, 3)).build()
    assert len(ConstructionSpec("H", 8, 3, 1, X=(2, 3, 4), Y=(2, 3, 5)).build()) == 16


def test_H_pairs_cross_intersect():
    for (n, k, l, t) in [(8, 3, 4, 1), (9, 4, 5, 2), (10, 5, 5, 3)]:
        X = tuple(range(t + 1, k + 2))
        Y = tuple(range(t + 1, l + 2))
        f = construct_H(n, k, t, X, Y)
        g = construct_H(n, l, t, Y, X)
        assert len(f) == eval_h(k, l, t, n)
        assert len(g) == eval_h(l, k, t, n)
        assert is_cross_t_intersecting(f, g, t)


def test_B_pair_cross_intersects():
    for (n, k, l) in [(6, 2, 2), (8, 3, 4), (9, 2, 5)]:
        f = construct_B(n, k, (1, 3, 2, 4))
        g = construct_B(n, l, (1, 2, 3, 4))
        assert is_cross_t_intersecting(f, g, 1)


def test_isomorphism_collapses():
    # one-anchor H with X = Y collapses onto the (t+2)-anchored family
    for (n, t) in [(6, 1), (7, 2), (9, 3), (10, 3)]:
        X = tuple(range(t + 1, t + 3))
        h = construct_H(n, t + 1, t, X, X)
        assert canonical_form(h) == canonical_form(construct_A(n, t + 1, t))
    # overlap-1 H at k = 2 is the three-interval family
    h = construct_H(7, 2, 1, (2, 3), (3, 4))
    b = construct_B(7, 2, (1, 2, 3, 4))
    assert canonical_form(h) == canonical_form(b)
    # the covering pair at l = t+1 collapses onto the (A, A) pair
    for (n, k, t) in [(7, 3, 1), (8, 4, 2)]:
        c1 = construct_C1(n, t + 1, t)
        c2 = construct_C2(n, k, t, t + 1)
        a1 = construct_A(n, t + 1, t)
        a2 = construct_A(n, k, t)
        assert canonical_form_tuple([c1, c2]) == canonical_form_tuple([a1, a2])


def test_D_examples():
    d = construct_D(6, 2, 1, (), (1, 2, 3, 4))
    assert set(d.to_sets()) == {(1, 3), (2, 4), (2, 3)}
    assert canonical_form(d) == canonical_form(construct_B(6, 2, (1, 3, 2, 4)))
    d = construct_D(8, 4, 2, (1,), (2, 3, 4, 5))
    assert len(d) == eval_a(4, 2, 8) - binom(3, 1)
    with pytest.raises(ValueError):
        construct_D(8, 4, 2, (1, 2), (3, 4, 5, 6))
    with pytest.raises(ValueError):
        construct_D(8, 4, 2, (1,), (1, 3, 4, 5))


def test_D_pair_cross_intersects():
    for (n, k, l, t) in [(8, 4, 4, 2), (9, 3, 4, 1), (10, 5, 5, 3)]:
        spec_f, spec_g = construction_pair("DD", n, k, l, t)
        f, g = spec_f.build(), spec_g.build()
        assert is_cross_t_intersecting(f, g, t)
        assert covering_number(f, t).tau == t + 1
        assert covering_number(g, t).tau == t + 1


def test_D_has_exactly_three_minimum_covers():
    # the cover collection is the partner's anchor triple, not this side's
    T, xs = default_D_anchors(2)
    d = construct_D(9, 4, 2, T, xs)
    cov = covering_number(d, 2)
    tm = mask_of(T)
    x1, x2, x3, x4 = xs
    expect = {tm | mask_of((x1, x2)), tm | mask_of((x3, x4)), tm | mask_of((x2, x3))}
    assert cov.tau == 3 and set(cov.covers) == expect


def test_verify_construction_reports():
    spec, partner = construction_pair("AA", 6, 2, 2, 1)
    rep = verify_construction(spec, partner)
    assert rep["pass"] and all(rep["checks"].values()) and rep["maximal_measured"]

    spec, partner = construction_pair("CC", 6, 2, 3, 1)
    rep = verify_construction(spec, partner)
    assert rep["pass"] and rep["maximal_measured"]

    spec, partner = construction_pair("BB", 6, 2, 2, 1)
    rep = verify_construction(spec, partner)
    assert rep["pass"]
    assert "maximal_measured" in rep  # measured, not required


def test_verify_construction_matches_recomputing_oracle():
    # every default-grid pair up to n = 9, in verify_grid's order and skips
    pairs = [
        (kind, p)
        for kind in PAIR_KINDS
        for p in default_grid()
        if p[3] <= 9 and not (kind == "BB" and p[0] != 1)
    ]
    non_maximal = []
    for kind, (t, k, l, n) in pairs:
        spec, partner = construction_pair(kind, n, k, l, t)
        for check_maximal in (False, True):
            rep = verify_construction(spec, partner, check_maximal)
            assert rep == verify_construction_reference(spec, partner, check_maximal), (kind, t, k, l, n)
        if not rep["maximal_measured"]:
            non_maximal.append((kind, (t, k, l, n)))
    assert len(non_maximal) == 185 and non_maximal[0] == ("AA", (1, 3, 2, 4))

    # not cross-intersecting: {1,2,4} in A misses {5,6,7} in B
    spec, partner = ConstructionSpec("A", 8, 3, 1), ConstructionSpec("B", 8, 3, 1, quad=(5, 6, 7, 8))
    for check_maximal in (True, False):
        rep = verify_construction(spec, partner, check_maximal)
        assert rep == verify_construction_reference(spec, partner, check_maximal)
        assert rep["checks"]["cross_intersecting"] is False

    # tau_1 = 1 on the first side only: A(3, 3, 1) is the single set [3]
    spec, partner = ConstructionSpec("A", 3, 3, 1), ConstructionSpec("A", 3, 2, 1)
    for check_maximal in (True, False):
        rep = verify_construction(spec, partner, check_maximal)
        assert rep == verify_construction_reference(spec, partner, check_maximal)
        assert not rep["checks"]["tau_first"] and rep["checks"]["tau_second"]


def test_star_tests_match_core_in_both_orders():
    # every pair kind, DD included, at points holding (k, l) and (l, k); the
    # pair is verified as built and with its sides swapped, so each star test
    # reads the closures of both orders
    kinds = {}
    for kind in (*PAIR_KINDS, "DD"):
        for t in (1, 2):
            for k in (t + 1, t + 2):
                for l in (t + 1, t + 2):
                    for n in range(l + 2, 9):
                        if kind == "BB" and t != 1:
                            continue
                        spec, partner = construction_pair(kind, n, k, l, t)
                        F, G = spec.build(), partner.build()
                        cross, maximal = is_cross_t_intersecting(F, G, t), is_maximal_pair(F, G, t)
                        for first, second in ((spec, partner), (partner, spec)):
                            rep = verify_construction(first, second)
                            assert rep["checks"]["cross_intersecting"] == cross, (kind, t, k, l, n)
                            assert rep["maximal_measured"] == maximal, (kind, t, k, l, n)
                        kinds.setdefault(kind, set()).add(maximal)
    # each kind meets both outcomes of the fixed-point test on this grid
    assert kinds == {kind: {False, True} for kind in (*PAIR_KINDS, "DD")}
    # a pair that is not cross t-intersecting, in both orders
    spec, partner = ConstructionSpec("A", 8, 3, 1), ConstructionSpec("B", 8, 3, 1, quad=(5, 6, 7, 8))
    for first, second in ((spec, partner), (partner, spec)):
        rep = verify_construction(first, second)
        assert rep["checks"]["cross_intersecting"] is False and rep["maximal_measured"] is False


def test_a_pair_reads_one_closure_per_family(monkeypatch):
    # AA at (t, k, l, n) = (2, 5, 6, 14): the covering numbers of each side
    # and the star tests in both orders read two closures, built in one
    # batch, and the closure memo of `select` is left alone
    spec, partner = construction_pair("AA", 14, 5, 6, 2)
    F, G = spec.build(), partner.build()
    built = []
    real = core._outside_flags
    monkeypatch.setattr(core, "_closures", core._ClosureMemo())
    monkeypatch.setattr(core, "_outside_flags", lambda keys, n: built.append((list(keys), n)) or real(keys, n))
    rep = verify_construction(spec, partner)
    assert built == [([(F.members, 2), (G.members, 2)], 14)]
    assert not core._closures.entries
    assert rep == verify_construction_reference(spec, partner) and rep["maximal_measured"]


def _random_spec(rng, n, k, t):
    """A spec of a random kind at (n, k, t), t+1 <= k < n and n >= t+3,
    with random anchors."""
    kind = rng.choice(("A", "B", "C1", "C2", "H", "D") if t == 1 else ("A", "C1", "C2", "H", "D"))
    ground = range(1, n + 1)
    if kind == "B":
        return ConstructionSpec("B", n, k, 1, quad=tuple(rng.sample(ground, 4)))
    if kind == "C2":
        return ConstructionSpec("C2", n, k, t, l=rng.randint(t + 1, n - 1))
    if kind == "H":
        free = range(t + 1, n + 1)
        X = tuple(rng.sample(free, k - t + 1))
        Y = set(rng.sample(X, 1 if t == 1 else 2)) | set(rng.sample(free, rng.randint(0, 3)))
        return ConstructionSpec("H", n, k, t, X=X, Y=tuple(sorted(Y)))
    if kind == "D":
        pts = rng.sample(ground, t + 3)
        return ConstructionSpec("D", n, k, t, T=tuple(pts[: t - 1]), quad=tuple(pts[t - 1 :]))
    return ConstructionSpec(kind, n, k, t)


def _random_pairs(rng, count, ns, t_max, spread):
    """`count` pairs at n in `ns`, t <= t_max and sizes t+1 to t+spread:
    default-anchored pairs, in either order, and pairs of random specs,
    mostly neither cross t-intersecting nor maximal."""
    pairs = []
    for _ in range(count):
        n, t = rng.choice(ns), rng.randint(1, t_max)
        k, l = (rng.randint(t + 1, min(t + spread, n - 1)) for _ in "kl")
        kind = rng.choice(PAIR_KINDS)
        if rng.random() < 0.5 and not (kind == "BB" and t != 1):
            pair = construction_pair(kind, n, k, l, t)
            pairs.append(pair if rng.random() < 0.5 else pair[::-1])
        else:
            pairs.append((_random_spec(rng, n, k, t), _random_spec(rng, n, l, t)))
    return pairs


@pytest.mark.parametrize("ns, t_max, spread", [(range(6, 21), 3, 3), (range(21, 25), 2, 2)], ids=["upset", "select"])
def test_verification_matches_the_oracle_on_random_specs(ns, t_max, spread):
    # up to 20 bits every check reads closures, built in batches; past 20
    # bits, at n = 21 to 24, the same checks read the outer product
    rng = random.Random(len(ns))
    pairs = _random_pairs(rng, 40, ns, t_max, spread)
    outcomes = set()
    for check_maximal in (False, True):
        expect = [verify_construction_reference(spec, partner, check_maximal) for spec, partner in pairs]
        assert _verify(pairs, check_maximal) == expect
        for (spec, partner), rep in list(zip(pairs, expect))[:5]:
            assert verify_construction(spec, partner, check_maximal) == rep
        outcomes |= {(rep["checks"]["cross_intersecting"], rep.get("maximal_measured")) for rep in expect}
    assert {(False, False), (True, False), (True, True)} <= outcomes


# each invalid spec, as the first or second side, with the text it raises
INVALID_SPECS = [
    (ConstructionSpec("H", 8, 3, 2, X=(3, 4), Y=(4, 5)), "need |X ∩ Y| >= 2"),
    (ConstructionSpec("B", 8, 3, 2, quad=(1, 2, 3, 4)), "the three-interval family requires t = 1"),
    (ConstructionSpec("D", 9, 4, 3, T=(1,), quad=(2, 3, 4, 5)), "anchor T must have t-1 = 2 elements, got (1,)"),
]


@pytest.mark.parametrize("bad, message", INVALID_SPECS, ids=["H", "B", "D"])
def test_an_invalid_spec_raises_its_own_text(bad, message):
    good = ConstructionSpec("A", bad.n, bad.k, bad.t)
    for pair in ((bad, good), (good, bad)):
        for check_maximal in (False, True):
            with pytest.raises(ValueError) as alone:
                verify_construction(*pair, check_maximal)
            assert str(alone.value) == message
            # after valid pairs, and before another invalid one
            other = INVALID_SPECS[INVALID_SPECS.index((bad, message)) - 1][0]
            with pytest.raises(ValueError) as among:
                _verify([(good, good), pair, (good, other)], check_maximal)
            assert str(among.value) == message


def test_spec_validation():
    with pytest.raises(ValueError):
        ConstructionSpec("B", 6, 2, 2, quad=(1, 2, 3, 4)).build()
    with pytest.raises(ValueError):
        ConstructionSpec("Z", 6, 2, 1).build()
    with pytest.raises(ValueError):
        construction_pair("BB", 6, 3, 3, 2)
