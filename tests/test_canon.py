import random
from itertools import combinations, combinations_with_replacement
from math import comb

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    ReferenceCanonicalizer,
    _reference_round,
    canonical_form_reference,
    enumerate_maximal_pairs,
    random_family,
)
from xfam import (
    Family,
    anchored_family,
    canonical_form,
    canonical_form_tuple,
    construct_A,
    construct_H,
    enumerate_maximal_t_intersecting,
    mask_of,
    relabel,
)
from xfam import canon
from xfam.canon import _Canonicalizer


def fam(n, k, *sets):
    return Family.from_sets(n, k, sets)


def test_relabelled_triangles_agree():
    t1 = fam(5, 2, (1, 2), (1, 3), (2, 3))
    t2 = fam(5, 2, (3, 4), (3, 5), (4, 5))
    assert canonical_form(t1) == canonical_form(t2)


def test_star_and_triangle_differ():
    star4 = fam(4, 2, (1, 2), (1, 3), (1, 4))
    tri4 = fam(4, 2, (1, 2), (1, 3), (2, 3))
    assert canonical_form(star4) != canonical_form(tri4)


def test_identity():
    f = fam(6, 3, (1, 2, 3), (2, 3, 4))
    assert canonical_form(f) == canonical_form(f)


def test_ground_set_size_is_part_of_the_form():
    t4 = fam(4, 2, (1, 2), (1, 3), (2, 3))
    t5 = fam(5, 2, (1, 2), (1, 3), (2, 3))
    assert canonical_form(t4) != canonical_form(t5)


def test_invariance_under_random_permutations():
    rng = random.Random(11)
    cases = [
        construct_A(8, 3, 1),
        construct_H(8, 3, 1, (2, 3, 4), (2, 3, 5)),
        anchored_family(8, 3, mask_of([2])),
        Family.complete(6, 3),
        Family(6, 3, ()),
        fam(7, 3, (1, 2, 3), (1, 2, 4), (3, 6, 7)),
    ]
    for f in cases:
        base = canonical_form(f)
        for _ in range(25):
            perm = list(range(1, f.n + 1))
            rng.shuffle(perm)
            assert canonical_form(relabel(f, perm)) == base


def test_pair_canonical_form():
    rng = random.Random(13)
    f = construct_A(7, 3, 1)
    g = anchored_family(7, 2, mask_of([1, 2]))
    base = canonical_form_tuple([f, g])
    for _ in range(20):
        perm = list(range(1, 8))
        rng.shuffle(perm)
        assert canonical_form_tuple([relabel(f, perm), relabel(g, perm)]) == base
    # the pair is ordered
    assert canonical_form_tuple([f, g]) != canonical_form_tuple([g, f])


def test_pairs_not_jointly_isomorphic():
    # (star@1, star@1) vs (star@1, star@2): the joint relabeling must move
    # both sides at once, so these differ even though sides are isomorphic
    s1 = anchored_family(5, 2, mask_of([1]))
    s2 = anchored_family(5, 2, mask_of([2]))
    assert canonical_form_tuple([s1, s1]) != canonical_form_tuple([s1, s2])


def test_mismatched_ground_sets_rejected():
    with pytest.raises(ValueError):
        canonical_form_tuple([fam(4, 2, (1, 2)), fam(5, 2, (1, 2))])


def shuffled(rng, n):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


def test_forms_equal_reference_on_maximal_families():
    rng = random.Random(5)
    for n, k, t in ((5, 2, 1), (6, 2, 1), (6, 3, 1), (6, 3, 2)):
        for f in enumerate_maximal_t_intersecting(n, k, t):
            g = relabel(f, shuffled(rng, n))
            assert canonical_form(f) == canonical_form_reference([f]), (n, k, t, f.members)
            assert canonical_form(g) == canonical_form_reference([g]), (n, k, t, g.members)


def pair_cases(rng):
    """Random pairs with empty and complete sides, a few fixed ones, and
    every maximal pair of the smoke-size `search` instance."""
    cases = []
    for _ in range(120):
        n = rng.randint(4, 7)
        k1, k2 = rng.sample(range(1, n), 2)
        sides = []
        for k in (k1, k2):
            r = rng.random()
            if r < 0.1:
                sides.append(Family(n, k, ()))
            elif r < 0.2:
                sides.append(Family.complete(n, k))
            else:
                sides.append(random_family(rng, n, k, 6))
        cases.append(sides)
    cases += [
        [Family(6, 2, ()), construct_A(6, 3, 1)],
        [Family.complete(6, 4), anchored_family(6, 2, mask_of([1]))],
        [Family(5, 3, ()), Family.complete(5, 2)],
    ]
    # the smoke-size `search` instance: every maximal pair, its witnesses included
    cases += [list(fg) for fg in enumerate_maximal_pairs(5, 2, 2, 1)]
    return cases


def test_forms_equal_reference_on_pairs():
    rng = random.Random(17)
    for f, g in pair_cases(rng):
        perm = shuffled(rng, f.n)
        for pair in ([f, g], [g, f], [relabel(f, perm), relabel(g, perm)]):
            assert canonical_form_tuple(pair) == canonical_form_reference(pair), pair


def graph_unions(n):
    """Every disjoint union of two or more parts (an edge, a 3-, 4- or
    5-cycle, K4) fitting in [n], as a 2-uniform family over [n]."""
    parts = {
        "K2": [(0, 1)],
        "C3": [(0, 1), (1, 2), (0, 2)],
        "C4": [(0, 1), (1, 2), (2, 3), (0, 3)],
        "C5": [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
        "K4": list(combinations(range(4), 2)),
    }
    size = {name: 1 + max(map(max, edges)) for name, edges in parts.items()}
    for r in range(2, n // 2 + 1):
        for names in combinations_with_replacement(parts, r):
            if sum(size[name] for name in names) > n:
                continue
            sets, first = [], 1
            for name in names:
                sets += [(first + a, first + b) for a, b in parts[name]]
                first += size[name]
            yield Family.from_sets(n, 2, sets)


def test_forms_equal_reference_on_disjoint_unions():
    # unions of symmetric parts have equal leaves deep in the tree, where the
    # automorphism backjump acts; an over-eager jump loses the minimum here
    rng = random.Random(29)
    for f in graph_unions(10):
        for _ in range(3):
            g = relabel(f, shuffled(rng, f.n))
            assert canonical_form(g) == canonical_form_reference([g]), g.members


class CountingReference(ReferenceCanonicalizer):
    nodes = 0

    def _search(self, cells, fixed):
        self.nodes += 1
        super()._search(cells, fixed)


@pytest.mark.parametrize(
    "family", [construct_A(10, 4, 1), anchored_family(8, 3, mask_of([1]))], ids=["A(10,4,1)", "star(8,3)"]
)
def test_backjumping_visits_fewer_nodes(family):
    # 111 -> 45 and 63 -> 28 nodes when this test was written
    ref = CountingReference(family.n, [family.members])
    new = _Canonicalizer(family.n, [family.members])
    assert new.run() == ref.run()
    assert new.leaves <= new.nodes < ref.nodes


@pytest.fixture
def memo(monkeypatch):
    """An empty form memo behind `canonical_form_tuple`, so that hit counts
    do not depend on which tests ran before."""
    fresh = canon._FormMemo(canon._MEMO_MASKS)
    monkeypatch.setattr(canon, "_FORMS", fresh)
    return fresh


def root_cells(families):
    """The root partition of the plain search on `families`."""
    search = _Canonicalizer(families[0].n, [f.members for f in families])
    return search._refine(search._degree_cells())


def same_root_key_perm(families):
    """A permutation of [n] that is increasing on each root cell of
    `families` and puts the cells in reverse order: the relabeled input
    lists each cell in the same order, so it has the same root key."""
    perm = [0] * families[0].n
    order = [e for cell in reversed(root_cells(families)) for e in cell]
    for label, e in enumerate(order, 1):
        perm[e] = label
    return perm


def test_warm_memo_forms_equal_reference(memo):
    inputs = [[f] for f in enumerate_maximal_t_intersecting(7, 3, 1)]
    inputs += pair_cases(random.Random(17))
    inputs += [[f] for f in graph_unions(10)]
    for families in inputs:
        canonical_form_tuple(families)
    warm = canon.form_cache_info()
    assert warm.misses == warm.forms and warm.hits > 0
    searched = warm.hits + warm.misses  # the inputs that are not empty or complete
    rng = random.Random(31)
    for families in inputs:
        n = families[0].n
        perm = shuffled(rng, n)
        copy = [relabel(f, perm) for f in families]
        assert canonical_form_tuple(copy) == canonical_form_reference(copy), copy
        # the second copy has the first one's root key, stored by the first
        # search or already there, so a search on it ends at its root
        perm = same_root_key_perm(copy)
        second = [relabel(f, perm) for f in copy]
        root_hits = memo.root_hits
        assert canonical_form_tuple(second) == canonical_form_reference(second), second
        searched_at_all = any(len(f.members) not in (0, comb(n, f.k)) for f in second)
        if searched_at_all and len(root_cells(second)) < n:
            root_hits += 1
        assert memo.root_hits == root_hits, second
    # every class was searched to its end once while warming; every copy
    # that was searched ended at a stored form or root key
    info = canon.form_cache_info()
    assert (info.misses, info.forms) == (warm.misses, warm.forms)
    assert info.hits == warm.hits + 2 * searched
    assert info.aliases > warm.aliases and info.masks == sum(m for _, m in memo.entries.values())


def test_memo_entries_never_cross_headers(memo):
    f = fam(7, 3, (1, 2, 3), (1, 2, 4), (3, 6, 7))
    # the same member masks over a larger ground set, and beside an empty
    # side of either size: [E_2, f] and [E_4, f] have equal leaf bytes
    cases = ([f], [Family(8, 3, f.members)], [f, Family(7, 2, ())], [Family(7, 2, ()), f], [Family(7, 4, ()), f])
    for families in cases:
        before = canon.form_cache_info()
        assert canonical_form_tuple(families) == canonical_form_reference(families), families
        after = canon.form_cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses + 1), families
    assert memo.info().forms == len(cases)


def test_canonical_copy_ends_at_its_root(memo):
    # relabelled by its own canonical labelling, a family's root cells are
    # runs of positions in order, so its root key is its form: a warm search
    # stops at the root, the plain one certifies symmetry
    f = construct_H(8, 3, 1, (2, 3, 4), (2, 3, 5))
    first = _Canonicalizer(f.n, [f.members])
    form = canonical_form(f)
    assert form == canon._header(f.n, [f]) + first.run()
    rep = Family(f.n, f.k, first.best[0])
    plain = _Canonicalizer(f.n, [rep.members])
    warm = _Canonicalizer(f.n, [rep.members], memo, canon._header(f.n, [rep]))
    assert warm.run() == plain.run() == first.leaf
    assert (warm.nodes, warm.leaves) == (1, 0)
    assert plain.leaves == first.leaves > 1
    assert (memo.hits, memo.root_hits) == (1, 1)


def test_memo_stays_within_its_bound(monkeypatch):
    small = canon._FormMemo(40)
    monkeypatch.setattr(canon, "_FORMS", small)
    rng = random.Random(37)
    aliases = 0
    for f in enumerate_maximal_t_intersecting(6, 3, 1) + list(graph_unions(10)):
        g = relabel(f, shuffled(rng, f.n))
        assert canonical_form(g) == canonical_form_reference([g]), g.members
        # root keys hold masks too, and count toward the bound
        assert small.masks == sum(m for _, m in small.entries.values()) <= 40
        aliases = max(aliases, small.info().aliases)
    info = canon.form_cache_info()
    assert info.max_masks == 40 and info.misses > info.forms  # the oldest forms were evicted
    assert aliases > 0
    # the newest entry stays; a form that cannot fit is not kept, nor is its
    # root key, and it evicts nothing
    kept = dict(small.entries)
    assert kept[next(reversed(kept))][0] == canonical_form(g)
    big = anchored_family(9, 4, mask_of([1]))
    assert len(big.members) > 40
    assert canonical_form(big) == canonical_form_reference([big])
    assert small.entries == kept


def test_pairs_of_other_shape_rejected_before_search():
    # the header, written before any search, already tells these apart
    f = anchored_family(6, 2, mask_of([1]))
    g = anchored_family(6, 3, mask_of([1, 2]))
    smaller = Family(6, 2, f.members[:-1])
    for first, second in (
        ((f, g), (g, f)),  # k differs side by side
        ((f, g), (smaller, g)),  # member counts differ
        ((g, f), (g, smaller)),
    ):
        assert canon._header(6, first) != canon._header(6, second)
        assert canonical_form_tuple(first) != canonical_form_tuple(second)


def incidence_graph(family):
    graph = nx.Graph()
    graph.add_nodes_from((("e", i) for i in range(1, family.n + 1)), kind="element")
    for m in family.members:
        graph.add_node(("m", m), kind="member")
        graph.add_edges_from((("m", m), ("e", i)) for i in range(1, family.n + 1) if m >> (i - 1) & 1)
    return graph


def same_kind(a, b):
    return a["kind"] == b["kind"]


def test_isomorphism_agrees_with_vf2():
    rng = random.Random(23)
    outcomes = []
    for _ in range(200):
        n = rng.randint(4, 7)
        k = rng.randint(2, n - 2)
        f = random_family(rng, n, k, 10)
        g = relabel(f, shuffled(rng, n))
        if rng.random() < 0.5:
            # perturb: swap one member for a set outside the family
            outside = [mask_of(c) for c in combinations(range(1, n + 1), k) if mask_of(c) not in g.members]
            if outside:
                members = list(g.members)
                members[rng.randrange(len(members))] = rng.choice(outside)
                g = Family.from_masks(n, k, members)
        expected = nx.is_isomorphic(incidence_graph(f), incidence_graph(g), node_match=same_kind)
        assert (canonical_form(f) == canonical_form(g)) == expected, (f.members, g.members)
        outcomes.append(expected)
    assert min(outcomes.count(True), outcomes.count(False)) >= 30  # both answers occur


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 12).flatmap(
        lambda d: st.tuples(
            st.lists(st.lists(st.integers(-50, 50), min_size=d, max_size=d), min_size=2, max_size=8),
            st.lists(st.integers(-50, 50), max_size=4),
            st.integers(d + 1, 3 * d + 3),
        )
    )
)
def test_rank_weighted_sums_order_as_sorted_tuples(case):
    # multisets of one length d, ranked among their values and a few others,
    # with any base above d: the sums order exactly as the sorted tuples
    multisets, others, base = case
    weight = canon._rank_weights([v for ms in multisets for v in ms] + others, base, [-1])
    sums = [sum(weight[v] for v in ms) for ms in multisets]
    tuples = [tuple(sorted(ms)) for ms in multisets]
    for a in range(len(multisets)):
        for b in range(len(multisets)):
            assert (sums[a] < sums[b], sums[a] == sums[b]) == (tuples[a] < tuples[b], tuples[a] == tuples[b])


def degree_split_cases(rng):
    """Random single families (some with elements outside the union), pairs
    with an empty side, and triples of families with different k."""
    cases = []
    for _ in range(150):
        n = rng.randint(4, 9)
        shape = rng.randrange(3)
        if shape == 0:
            cases.append([random_family(rng, n, rng.randint(1, min(3, n - 1)), rng.randint(1, 4))])
        elif shape == 1:
            k1, k2 = rng.sample(range(1, n), 2)
            sides = [Family(n, k1, ()), random_family(rng, n, k2, 6)]
            rng.shuffle(sides)
            cases.append(sides)
        else:
            cases.append([random_family(rng, n, k, 6) for k in rng.sample(range(1, n), 3)])
    return cases


def test_degree_split_is_the_first_reference_round():
    rng = random.Random(41)
    isolated = 0
    for families in degree_split_cases(rng):
        n = families[0].n
        masks = [f.members for f in families]
        ref = ReferenceCanonicalizer(n, masks)
        unit = (tuple(range(n)),)
        expected = _reference_round(unit, ref.fam_members, ref.elem_members, n)
        assert _Canonicalizer(n, masks)._degree_cells() == expected, masks
        isolated += any(all(not m >> e & 1 for f in families for m in f.members) for e in range(n))
    assert isolated >= 30  # elements of degree 0 occur


def top_bit_family(rng, n, k, size):
    """A random k-uniform family of `size` members over [n], one of them
    through n."""
    sets = {tuple(sorted(rng.sample(range(1, n), k - 1) + [n]))}
    while len(sets) < size:
        sets.add(tuple(sorted(rng.sample(range(1, n + 1), k))))
    return Family.from_sets(n, k, sets)


@pytest.mark.parametrize("n", [8, 9, 16, 17, 64])
def test_forms_equal_reference_across_byte_boundaries(n):
    # members are decoded a byte at a time: ground sets that end at, or one
    # past, a byte boundary, with members through the top element; at n = 64
    # ten members of 16 to 32 elements leave few symmetries, so the reference
    # search stays short
    rng = random.Random(43 + n)
    for _ in range(8):
        f = top_bit_family(rng, n, rng.randint(max(2, n // 4), n // 2), 10 if n == 64 else rng.randint(4, 6))
        g = top_bit_family(rng, n, rng.randint(max(2, n // 4), n // 2), 9 if n == 64 else rng.randint(3, 5))
        for families in ([f], [f, g], [g, f]):
            assert canonical_form_tuple(families) == canonical_form_reference(families), families


def symmetric_64():
    """Symmetric inputs over [64], each with members through element 64 (the
    top bit of an 8-byte mask): four disjoint 16-sets, a sunflower of eight
    15-sets with an 8-set core, and the 16-sets beside the two 32-sets they
    pair into."""
    blocks = Family.from_sets(64, 16, [range(1 + 16 * i, 17 + 16 * i) for i in range(4)])
    halves = Family.from_sets(64, 32, [range(1, 33), range(33, 65)])
    sunflower = Family.from_sets(64, 15, [[*range(1, 9), *range(9 + 7 * i, 16 + 7 * i)] for i in range(8)])
    return [[blocks], [sunflower], [blocks, halves]]


@pytest.mark.parametrize("families", symmetric_64(), ids=["blocks", "sunflower", "pair"])
def test_symmetric_forms_at_64_equal_plain_search(memo, families):
    # the reference search cannot finish these (no backjump), so the plain
    # memo-less search is the oracle; the second copy has the first one's
    # root key, and the third is searched with that class already known
    rng = random.Random(47)
    head = canon._header(64, families)
    copy = [relabel(f, shuffled(rng, 64)) for f in families]
    form = head + _Canonicalizer(64, [f.members for f in copy]).run()
    perm = same_root_key_perm(copy)
    third = shuffled(rng, 64)
    for labelled in (copy, [relabel(f, perm) for f in copy], [relabel(f, third) for f in copy]):
        assert canonical_form_tuple(labelled) == form
    assert (memo.misses, memo.hits) == (1, 2) and memo.root_hits >= 1
    assert any(m >> 63 for f in copy for m in f.members)
