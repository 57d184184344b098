import sys
import time
from collections import Counter
from math import comb

import pytest

import xfam.core
from xfam import (
    Family,
    anchored_family,
    canonical_form,
    classify_fact_2_1,
    classify_pair_theorem_1_1,
    classify_theorem_1_2,
    construct_A,
    construct_B,
    construct_C1,
    construct_C2,
    construct_H,
    count_theorem_1_2,
    covering_number,
    enumerate_maximal_t_intersecting,
    mask_of,
    match_theorem_1_2,
    maximal_cross_tuples,
    theorem_1_2_instances,
)
from helpers import (
    count_theorem_1_2_reference,
    count_theorem_1_2_vertex_orbit,
    enumerate_maximal_pairs,
    maximal_with_tau_t_plus_1,
)


def fam(n, k, *sets):
    return Family.from_sets(n, k, sets)


def test_preconditions():
    with pytest.raises(ValueError):
        classify_theorem_1_2(fam(5, 2, (1, 2)), 1)  # not maximal
    with pytest.raises(ValueError):
        classify_theorem_1_2(anchored_family(6, 3, mask_of([1])), 1)  # tau = t
    with pytest.raises(ValueError):
        classify_fact_2_1(fam(6, 3, (1, 2, 3)), 1)  # not (t+1)-uniform


def test_triangle_matches_both_shapes():
    tri = fam(5, 2, (1, 2), (1, 3), (2, 3))
    m = classify_theorem_1_2(tri, 1)
    names = {x[0] for x in m.all_matches}
    assert "T1.2-i" in names and "T1.2-iii" in names
    assert m.template == "T1.2-i"
    iii = [w for (name, w) in m.all_matches if name == "T1.2-iii"]
    assert all(w["residual_sizes"] == (1, 1) for w in iii)


def test_rigid_templates_match():
    m = classify_theorem_1_2(construct_A(7, 4, 2), 2)
    assert m.template == "T1.2-i"
    h = construct_H(8, 4, 2, (3, 4, 5), (3, 4, 5))
    m = classify_theorem_1_2(h, 2)
    assert "T1.2-ii" in {x[0] for x in m.all_matches}


def test_generated_instances_match_their_template():
    for (n, k, t) in [(6, 3, 1), (7, 4, 2)]:
        for family, name, _ in theorem_1_2_instances(n, k, t):
            m = classify_theorem_1_2(family, t)
            assert name in {x[0] for x in m.all_matches}, (n, k, t, name)


def test_matcher_agrees_with_checked_entry():
    # the containment matcher against the rebuild matcher, witnesses and
    # their order included
    from helpers import match_theorem_1_2_reference

    for (n, k, t) in [(6, 3, 1), (7, 3, 1), (7, 4, 2)]:
        for family in enumerate_maximal_t_intersecting(n, k, t):
            cov = covering_number(family, t)
            if cov.tau == t + 1:
                got = match_theorem_1_2(family, t, cov)
                assert got == match_theorem_1_2_reference(family, t, cov), (n, k, t, family.members)


@pytest.mark.parametrize(
    "n,k,t", [(6, 3, 1), (7, 3, 1), (7, 4, 2), (8, 3, 1), (8, 4, 3), (4, 2, 2), (3, 3, 3), (5, 4, 3)]
)
def test_clique_mask_kernel_agrees_with_library(n, k, t):
    # covers read off the clique masks against covering_number on each
    # family; (8,4,3) has 70 vertices, two words per clique; with k = t, as
    # at (4,2,2) and (3,3,3), every clique is one k-set, a star, and (3,3,3)
    # has no (t+1)-subset at all
    from helpers import classify_all_reference

    total, found = maximal_with_tau_t_plus_1(n, k, t)
    ref_total, ref = classify_all_reference(n, k, t)
    assert total == ref_total
    assert found == [(f, cov) for f, cov, _ in ref]
    assert [match_theorem_1_2(f, t, cov) for f, cov in found] == [m for _, _, m in ref]
    if k == t:
        assert found == []


def _matcher_counts(n, k, t):
    total, found = maximal_with_tau_t_plus_1(n, k, t)
    counts = Counter(name for f, cov in found for name, _ in match_theorem_1_2(f, t, cov).all_matches)
    return total, len(found), dict(counts)


@pytest.mark.parametrize(
    "n,k,t", [(4, 2, 2), (4, 3, 1), (5, 2, 1), (6, 3, 1), (6, 4, 2), (7, 4, 2), (8, 4, 2), (8, 5, 3)]
)
def test_cover_matrix_counts_agree_with_matcher(n, k, t):
    # the counts of classify-all, read off the minimum-cover matrix, against
    # the matcher run on every decoded family; (8,4,2) has 70 vertices, so
    # two words per clique
    assert count_theorem_1_2(n, k, t) == _matcher_counts(n, k, t)


@pytest.mark.parametrize("chunk", [7, 7 * (21 + 35)])
def test_cover_matrix_counts_across_chunk_boundaries(monkeypatch, chunk):
    # (7,4,2) has 6,127 cliques and 21 + 35 cover rows: blocks of one
    # clique, then of 7 with the last one partial
    expected = _matcher_counts(7, 4, 2)
    monkeypatch.setattr(xfam.core, "_BLOCK_WORDS", chunk)
    assert count_theorem_1_2(7, 4, 2) == expected
    assert _matcher_counts(7, 4, 2) == expected


_ORBIT_POINTS = [(4, 2, 1), (5, 3, 1), (6, 3, 1), (6, 4, 2), (7, 4, 2), (8, 4, 2), (8, 5, 3), (9, 4, 2), (10, 4, 2)]


@pytest.mark.parametrize("n,k,t", _ORBIT_POINTS)
def test_orbit_counts_agree_with_the_full_walk(n, k, t):
    # every count summed as C(n, k) / |F| over the families through v0,
    # against the same lookups run on every maximal family once; (11,4,2)
    # is past the full walk's budget, and
    # test_cli.test_classify_all_past_the_full_walk checks it another way
    assert count_theorem_1_2(n, k, t) == count_theorem_1_2_reference(n, k, t)


def test_orbit_counts_across_chunk_boundaries(monkeypatch):
    # blocks of 3 cliques at (7,4,2) (21 + 35 cover rows), whose 1,860
    # cliques through v0 come in walk order with sizes 15, 13, 13, 12, 13,
    # ..., so blocks mix sizes and boundaries fall between sizes; blocks of
    # 1 to 16 cliques at the other points
    expected = {point: count_theorem_1_2_reference(*point) for point in _ORBIT_POINTS[:7]}
    monkeypatch.setattr(xfam.core, "_BLOCK_WORDS", 3 * (21 + 35))
    assert {point: count_theorem_1_2(*point) for point in expected} == expected


@pytest.mark.parametrize("n,k,t", _ORBIT_POINTS + [(11, 4, 2)])
def test_edge_orbit_counts_agree_with_the_vertex_orbit(n, k, t):
    # k - t walks through one edge (v0, w_j) each, weighed by the orbit of
    # w_j and 1/(|F|(|F|-1)), against the one walk through v0 weighed by
    # 1/|F|; (11,4,2) is past the full walk's budget
    assert count_theorem_1_2(n, k, t) == count_theorem_1_2_vertex_orbit(n, k, t)


@pytest.mark.parametrize("chunk", [None, 1, 3 * (21 + 35)], ids=["default", "chunk-1", "chunk-168"])
@pytest.mark.parametrize("n,k,t", [(5, 3, 3), (6, 4, 4), (4, 4, 2), (6, 6, 1), (6, 4, 1), (8, 5, 1), (7, 5, 2)])
def test_edge_orbit_counts_at_the_edge_cases(monkeypatch, chunk, n, k, t):
    # t = k and k = n: v0 has no neighbour and {v0} is the one family through
    # it, counted by itself; (6,4,1), (8,5,1) and (7,5,2): the orbit of
    # j = t is empty (n - k < k - j), so no edge of it is walked. Blocks of
    # one clique, of a few, and the default
    if chunk:
        monkeypatch.setattr(xfam.core, "_BLOCK_WORDS", chunk)
    expected = count_theorem_1_2_reference(n, k, t)
    assert count_theorem_1_2(n, k, t) == count_theorem_1_2_vertex_orbit(n, k, t) == expected


@pytest.mark.parametrize("n,t", [(4, 1), (9, 7), (12, 3), (20, 5)])
def test_cover_matrix_counts_of_the_complete_family(n, t):
    # For k = n-1 >= t+1 the complete family is the only maximal one, and its
    # minimum covers are all (t+1)-sets: each member misses one element. So
    # every (t+2)-set is an A anchor, and each t-set has n-t spokes. At
    # (20,19,5) the matcher would list 507,771,504 T1.2-iv anchors.
    k, s = n - 1, n - t
    iv = comb(n, t) * sum(comb(s, m - t) for m in range(t + 2, k + 1))
    counts = {"T1.2-i": comb(n, t + 2), "T1.2-ii": comb(n, t), "T1.2-iii": comb(n, t + 1), "T1.2-iv": iv}
    assert count_theorem_1_2(n, k, t) == (1, 1, {name: c for name, c in counts.items() if c})


# Complementing every member maps the maximal t-intersecting k-families over
# [n] onto the maximal (n-2k+t)-intersecting (n-k)-families: |(~f) ∩ (~g)| =
# n - 2k + |f ∩ g|, and a k-set joins a family iff its complement joins the
# image. τ_t is not preserved, so only the totals are compared.
@pytest.mark.parametrize(
    "n, k, t, total",
    [(10, 4, 2, 722_565), (9, 3, 1, 72_531), (9, 4, 2, 211_050), (8, 3, 1, 23_936)],
)
def test_complements_count_the_same_maximal_families(n, k, t, total):
    assert count_theorem_1_2(n, k, t)[0] == count_theorem_1_2(n, n - k, n - 2 * k + t)[0] == total


def test_complements_map_maximal_families_onto_each_other():
    # 6,127 families each side, listed in different orders
    full = (1 << 7) - 1
    image = sorted(tuple(sorted(full ^ m for m in f.members)) for f in enumerate_maximal_t_intersecting(7, 3, 1))
    other = sorted(f.members for f in enumerate_maximal_t_intersecting(7, 4, 2))
    assert len(image) == 6_127 and image == other


def test_pair_matcher_agrees_with_reference():
    from helpers import classify_pair_reference

    for (n, k1, k2, t) in [(5, 2, 2, 1), (6, 2, 3, 1), (6, 3, 3, 2)]:
        for F, G in enumerate_maximal_pairs(n, k1, k2, t):
            if covering_number(F, t).tau != t + 1 or covering_number(G, t).tau != t + 1:
                continue
            for pair in ((F, G), (G, F)):
                got = classify_pair_theorem_1_1(*pair, t)
                assert got == classify_pair_reference(*pair, t), (n, k1, k2, t, pair)


def test_fact_2_1_examples():
    tri = fam(5, 2, (1, 2), (1, 3), (2, 3))
    assert classify_fact_2_1(tri, 1).template == "F2.1-simplex"
    star = fam(4, 2, (1, 2), (1, 3), (1, 4))
    m = classify_fact_2_1(star, 1)
    assert m.template == "F2.1-star" and m.witnesses["T"] == (1,)
    simplex = Family.from_masks(6, 3, Family.complete(4, 3).members)
    assert classify_fact_2_1(simplex, 2).template == "F2.1-simplex"


def test_fact_2_1_agrees_with_reference():
    # the containment decision against the canonical-form one, at every
    # maximal (t+1)-uniform family with t <= 3 and n <= 8 (551 families)
    from helpers import classify_fact_2_1_reference

    for t in (1, 2, 3):
        for n in range(t + 2, 9):
            for family in enumerate_maximal_t_intersecting(n, t + 1, t):
                assert classify_fact_2_1(family, t) == classify_fact_2_1_reference(family, t), (n, t, family.members)


def test_pair_classification():
    a2 = construct_A(6, 2, 1)
    m = classify_pair_theorem_1_1(a2, a2, 1)
    assert "T1.1-AA" in {x[0] for x in m.all_matches}

    b1 = construct_B(6, 2, (1, 3, 2, 4))
    b2 = construct_B(6, 2, (1, 2, 3, 4))
    m = classify_pair_theorem_1_1(b1, b2, 1)
    names = {x[0] for x in m.all_matches}
    assert "T1.1-BB" in names
    assert "T1.1-HH" in names  # overlap-1 H pairs coincide with the B pair

    c1 = construct_C1(6, 3, 1)
    c2 = construct_C2(6, 2, 1, 3)
    m = classify_pair_theorem_1_1(c1, c2, 1)
    assert "T1.1-CC" in {x[0] for x in m.all_matches}
    m = classify_pair_theorem_1_1(c2, c1, 1)
    assert "T1.1-CC" in {x[0] for x in m.all_matches}

    hk = construct_H(7, 3, 1, (2, 3, 4), (2, 3))
    hl = construct_H(7, 2, 1, (2, 3), (2, 3, 4))
    m = classify_pair_theorem_1_1(hk, hl, 1)
    assert "T1.1-HH" in {x[0] for x in m.all_matches}


def test_pair_preconditions():
    with pytest.raises(ValueError):
        classify_pair_theorem_1_1(fam(6, 2, (1, 2)), fam(6, 2, (3, 4)), 1)
    star = anchored_family(6, 2, mask_of([1]))
    with pytest.raises(ValueError):
        classify_pair_theorem_1_1(star, star, 1)  # tau = t


def test_residual_sweeps():
    # pairs over the universe {3,4,5,6} agree with the definition oracle on
    # the isomorphic ground set [4] (same counts, nonempty sides)
    from helpers import brute_maximal_pairs

    pairs = maximal_cross_tuples(mask_of([3, 4, 5, 6]), (2, 2))
    nonempty = [p for p in pairs if p[0] and p[1]]
    assert len(nonempty) == len(brute_maximal_pairs(4, 2, 2, 1))
    assert len(pairs) == len(nonempty) + 2  # plus the two pairs with an empty side
    tuples = maximal_cross_tuples(mask_of([3, 4, 5, 6]), (2, 2, 2))
    for tup in tuples:
        # round-robin fixed point: each component is the star of the others
        from xfam.core import select, subsets

        for i, members in enumerate(tup):
            others = [m for j, o in enumerate(tup) if j != i for m in o]
            assert tuple(sorted(members)) == select(subsets(mask_of([3, 4, 5, 6]), 2), others, 1)


def test_cross_tuples_match_sweep():
    # the coloured-clique kernel against the product sweep over universes of
    # 4-6 elements, r = 1..4 equal sizes, t = 1, 2, while the sweep stays
    # within 2^16 steps; size 7 exceeds every universe and leaves one
    # all-empty tuple (mixed sizes: test_maximal_pairs_match_subset_sweep)
    from helpers import sweep_cross_tuples

    checked = 0
    for universe in (mask_of([3, 4, 5, 6]), mask_of([2, 3, 4, 5, 6]), mask_of(range(4, 10))):
        for size in (1, 2, 3, 7):
            vertices = comb(universe.bit_count(), size)
            for r in range(1, 5):
                if vertices * (r - 1) > 16:
                    continue
                for t in (1, 2):
                    got = maximal_cross_tuples(universe, (size,) * r, t)
                    assert got == sorted(sweep_cross_tuples(universe, size, r, t)), (universe, size, r, t)
                    checked += 1
                    if size == 7:
                        assert got == [((),) * r]
    assert checked == 74


@pytest.mark.parametrize(
    "n,k,t,classes", [(6, 3, 1, 6), (7, 3, 1, 6), (7, 4, 2, 7), (8, 3, 1, None), (8, 4, 2, None), (8, 5, 3, None)]
)
def test_instances_reach_every_family(n, k, t, classes):
    # Double counting over the (t+1)-sets M: a family F with tau = t+1 is the
    # T1.2-iii instance at each of its minimum covers, and every M carries as
    # many instances as the canonical M = [t+1], so the cover sum over the
    # enumerated families is C(n, t+1) times the T1.2-iii count (24,360 at
    # (8,4,2)). A missed or extra residual tuple breaks it. Up to
    # isomorphism the two sides give the same classes.
    _, found = maximal_with_tau_t_plus_1(n, k, t)
    iii = [f for f, name, _ in theorem_1_2_instances(n, k, t) if name == "T1.2-iii"]
    assert sum(len(cov.covers) for _, cov in found) == comb(n, t + 1) * len(iii)
    if classes is not None:
        forms = {canonical_form(f) for f, _ in found}
        assert forms == {canonical_form(f) for f in iii}
        assert len(forms) == classes


def test_instances_past_the_sweep_budget():
    # points the (2^V)^t product sweep refused; the T1.2-iii counts times
    # C(n, t+1) equal the cover sums of maximal_with_tau_t_plus_1 there
    # (96,684 and 77,220)
    for (n, k, t), total, iii in [((9, 4, 2), 1_169, 1_151), ((10, 3, 1), 1_747, 1_716)]:
        names = [name for _, name, _ in theorem_1_2_instances(n, k, t)]
        assert (len(names), names.count("T1.2-iii")) == (total, iii)
    # (9,5,2) has 9,765,625 residual tuples at one M: refused early
    limit = sys.getrecursionlimit()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="more than the budget of 1,300,000 maximal cliques"):
        theorem_1_2_instances(9, 5, 2)
    assert time.perf_counter() - start < 10
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize("n, k, t", [(6, 3, 1), (8, 4, 2), (9, 4, 2), (12, 5, 3)])
def test_instances_equal_validated_families(n, k, t):
    # the instances skip `Family`'s member checks; the checked family of the
    # same members is equal to each, so the members are sorted k-subsets
    instances = theorem_1_2_instances(n, k, t)
    assert len({name for _, name, _ in instances}) == 4
    for family, name, wit in instances:
        assert Family(n, k, family.members) == family, (name, wit)


def test_unmatched_returns_none_template():
    # a maximal family with tau = t+1 over a tiny ground set where the
    # composite templates cannot fit is still matched by the simplex shape;
    # classify on the smallest instance to confirm template order stability
    m = classify_theorem_1_2(fam(4, 2, (1, 2), (1, 3), (2, 3)), 1)
    assert m.matched


def test_two_way_light():
    n, k, t = 6, 3, 1
    enum = {f.members for f in enumerate_maximal_t_intersecting(n, k, t)}
    inst = theorem_1_2_instances(n, k, t)
    assert inst, "generator must produce instances"
    for family, name, wit in inst:
        assert family.members in enum, (name, wit)
