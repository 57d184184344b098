import random
from itertools import combinations

import pytest

from xfam import (
    Family,
    Params,
    closure_pair,
    closure_tuple,
    covering_number,
    elements_of,
    family_from_text,
    family_to_text,
    full_mask,
    intersection_size,
    interval_family,
    is_cross_t_intersecting,
    is_maximal_pair,
    is_maximal_t_intersecting,
    is_t_intersecting,
    mask_of,
    relabel,
    restrict,
    star,
)
from xfam import core
from xfam.core import _NP_PAIR_CUTOFF, select, subsets
from helpers import brute_covers


def fam(n, k, *sets):
    return Family.from_sets(n, k, sets)


def test_mask_roundtrip():
    assert elements_of(mask_of([3, 1, 5])) == (1, 3, 5)
    assert mask_of([]) == 0
    assert full_mask(4) == 0b1111


def test_intersection_size():
    assert intersection_size(mask_of([1, 2]), mask_of([2, 3])) == 1
    assert intersection_size(mask_of([1, 2, 3]), mask_of([1, 2, 3])) == 3
    assert intersection_size(mask_of([1, 2]), mask_of([3, 4])) == 0


def test_params_invariants():
    Params(6, 3, 1)
    with pytest.raises(ValueError):
        Params(6, 7, 1)
    with pytest.raises(ValueError):
        Params(6, 3, 4)
    with pytest.raises(ValueError):
        Params(65, 3, 1)


def test_family_validation():
    with pytest.raises(ValueError):
        Family(4, 2, (mask_of([1, 2, 3]),))
    with pytest.raises(ValueError):
        Family(4, 2, (mask_of([4, 5]),))
    with pytest.raises(ValueError):
        Family(4, 2, (mask_of([1, 2]), mask_of([1, 2])))
    # constructor sorts through from_masks, raw tuple must already be sorted
    with pytest.raises(ValueError):
        Family(4, 2, (mask_of([1, 3]), mask_of([1, 2])))


def test_membership():
    f = Family.from_sets(5, 2, [(1, 2), (2, 4), (3, 5)])
    members = set(f.members)
    assert all((m in f) == (m in members) for m in range(1 << 5))
    assert 0 not in Family(5, 2, ())


def test_subsets_and_select_match_loops():
    universe = mask_of([1, 3, 4, 6, 7, 9, 10, 11, 12, 14])
    table = subsets(universe, 4)
    assert table.masks == tuple(sorted(mask_of(c) for c in combinations(elements_of(universe), 4)))
    assert table.array.tolist() == list(table.masks)
    rng = random.Random(5)
    for count in (3, 200):  # one input below the numpy cutoff, one above
        members = [mask_of(rng.sample(range(1, 15), 6)) for _ in range(count)]
        assert (len(table.masks) * count >= _NP_PAIR_CUTOFF) == (count == 200)
        for t in (1, 2):
            expect = tuple(c for c in table.masks if all((c & m).bit_count() >= t for m in members))
            assert select(table, members, t) == expect


def test_interval_family():
    f = interval_family(3, 2, mask_of([1]), mask_of([1, 2, 3]))
    assert f.to_sets() == ((1, 2), (1, 3))
    assert len(interval_family(4, 2, 0, full_mask(4))) == 6
    f = interval_family(5, 3, mask_of([1, 2]), full_mask(5))
    assert f.to_sets() == ((1, 2, 3), (1, 2, 4), (1, 2, 5))
    with pytest.raises(ValueError):
        interval_family(5, 2, mask_of([1, 4]), mask_of([1, 2, 3]))
    with pytest.raises(ValueError):
        interval_family(5, 1, mask_of([1, 2]), full_mask(5))


def test_restrict():
    f = fam(3, 2, (1, 2), (1, 3), (2, 3))
    assert restrict(f, mask_of([1])).to_sets() == ((1, 2), (1, 3))
    assert restrict(f, 0).members == f.members
    assert len(restrict(fam(3, 2, (1, 2)), mask_of([3]))) == 0


def test_is_cross_t_intersecting():
    assert is_cross_t_intersecting(fam(4, 2, (1, 2)), fam(4, 2, (1, 3)), 1)
    assert not is_cross_t_intersecting(fam(4, 2, (1, 2)), fam(4, 2, (3, 4)), 1)
    empty = Family(4, 2, ())
    assert is_cross_t_intersecting(empty, fam(4, 2, (3, 4)), 1)


def test_cross_intersecting_matches_pairwise_loop():
    # A(3,1)-style family at n=5 against itself, checked pair by pair
    from xfam import construct_A

    a = construct_A(5, 3, 1)
    expected = all(
        (x & y).bit_count() >= 1 for x in a.members for y in a.members
    )
    assert is_cross_t_intersecting(a, a, 1) == expected is True


def test_is_t_intersecting():
    assert is_t_intersecting(fam(6, 3, (1, 2, 3), (1, 2, 4)), 2)
    assert not is_t_intersecting(fam(6, 3, (1, 2, 3), (1, 4, 5)), 2)
    # any two 4-subsets of [6] share at least 4 + 4 - 6 = 2 elements
    assert is_t_intersecting(Family.complete(6, 4), 2)


def test_covering_number_examples():
    c = covering_number(fam(4, 2, (1, 2)), 1)
    assert c.tau == 1 and [elements_of(x) for x in c.covers] == [(1,), (2,)]
    tri = fam(3, 2, (1, 2), (1, 3), (2, 3))
    c = covering_number(tri, 1)
    assert c.tau == 2 and len(c.covers) == 3 and set(c.covers) == set(tri.members)
    a32 = Family.complete(4, 3)
    c = covering_number(a32, 2)
    assert c.tau == 3 and set(c.covers) == set(a32.members)
    assert elements_of(c.union) == (1, 2, 3, 4)


@pytest.mark.parametrize("cap", [core._COVER_SWEEP_CAP, 0], ids=["sweep", "branching"])
def test_covering_number_brute_equivalence(cap, monkeypatch):
    # at cap 0 every cover size above t goes to `_covers_by_branching`
    monkeypatch.setattr(core, "_COVER_SWEEP_CAP", cap)
    rng = random.Random(20260809)
    for _ in range(120):
        n = rng.randint(3, 7)
        k = rng.randint(1, n - 1)
        t = rng.randint(1, k)
        from helpers import random_family

        f = random_family(rng, n, k, 6)
        c = covering_number(f, t)
        tau, covers = brute_covers(f, t)
        assert (c.tau, c.covers) == (tau, covers)


def test_covering_number_errors():
    with pytest.raises(ValueError):
        covering_number(Family(4, 2, ()), 1)
    with pytest.raises(ValueError):
        covering_number(fam(4, 2, (1, 2)), 3)


def test_star_examples():
    s = star(fam(4, 2, (1, 2)), 2, 1)
    assert set(s.to_sets()) == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)}
    assert len(star(Family(4, 2, ()), 2, 1)) == 6
    s = star(fam(4, 3, (1, 2, 3)), 3, 3)
    assert s.to_sets() == ((1, 2, 3),)


def test_star_antitone_and_universe():
    small = fam(5, 2, (1, 2))
    big = fam(5, 2, (1, 2), (3, 4))
    assert set(star(big, 2, 1).members) <= set(star(small, 2, 1).members)
    inside = star(fam(5, 2, (1, 2)), 2, 1, universe=mask_of([1, 2, 3]))
    assert set(inside.to_sets()) == {(1, 2), (1, 3), (2, 3)}


def test_closure_pair():
    f, g = closure_pair(fam(4, 2, (1, 2)), fam(4, 2, (1, 2)), 1)
    assert f.to_sets() == ((1, 2),)
    assert set(g.to_sets()) == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)}
    assert is_maximal_pair(f, g, 1)
    # triangle pair is already closed
    from xfam import construct_A

    a = construct_A(5, 2, 1)
    f, g = closure_pair(a, a, 1)
    assert f.members == a.members and g.members == a.members
    with pytest.raises(ValueError):
        closure_pair(Family.complete(4, 2), Family.complete(4, 2), 1)
    with pytest.raises(ValueError):
        closure_pair(Family(4, 2, ()), fam(4, 2, (1, 2)), 1)


def test_closure_tuple():
    # two components agree with closure_pair
    f0, g0 = fam(4, 2, (1, 2)), fam(4, 2, (1, 2))
    pair = closure_pair(f0, g0, 1)
    tup = closure_tuple([f0, g0], 1)
    assert (tup[0].members, tup[1].members) == (pair[0].members, pair[1].members)
    # three singleton families sharing one element stay put
    fams = [fam(6, 1, (5,)) for _ in range(3)]
    out = closure_tuple(fams, 1)
    assert all(x.to_sets() == ((5,),) for x in out)
    # a 1-set against a 2-set: the 2-uniform side fills the whole star
    out = closure_tuple([fam(6, 1, (3,)), fam(6, 2, (3, 4))], 1)
    assert out[0].to_sets() == ((3,),)
    assert set(out[1].to_sets()) == {(1, 3), (2, 3), (3, 4), (3, 5), (3, 6)}
    with pytest.raises(ValueError):
        closure_tuple([fam(4, 2, (1, 2)), fam(4, 2, (3, 4))], 1)


def test_is_maximal_t_intersecting():
    tri5 = fam(5, 2, (1, 2), (1, 3), (2, 3))
    assert is_maximal_t_intersecting(tri5, 1)
    assert not is_maximal_t_intersecting(fam(4, 2, (1, 2)), 1)
    assert is_maximal_t_intersecting(Family.complete(6, 4), 2)
    with pytest.raises(ValueError):
        is_maximal_t_intersecting(fam(6, 3, (1, 2, 3), (1, 4, 5)), 2)


def test_relabel():
    tri = fam(5, 2, (1, 2), (1, 3), (2, 3))
    moved = relabel(tri, [3, 4, 5, 1, 2])
    assert set(moved.to_sets()) == {(3, 4), (3, 5), (4, 5)}
    with pytest.raises(ValueError):
        relabel(tri, [1, 1, 2, 3, 4])


def test_family_text_roundtrip():
    f = fam(6, 3, (2, 4, 6), (1, 2, 5))
    text = family_to_text(f)
    assert text.splitlines()[0] == "# n=6 k=3"
    assert family_from_text(text).members == f.members
    # headerless input infers n from the largest element
    g = family_from_text("1 2 5\n2 4 6\n")
    assert g.n == 6 and g.k == 3 and g.members == f.members
    with pytest.raises(ValueError):
        family_from_text("1 2\n1 2 3\n")
    empty = family_from_text("# n=5 k=2\n")
    assert empty.n == 5 and len(empty) == 0
