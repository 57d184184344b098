import random

import networkx as nx
import numpy as np
import pytest

import xfam.cli
import xfam.core
import xfam.enumeration
from xfam import (
    Family,
    anchored_family,
    canonical_form,
    covering_number,
    enumerate_maximal_t_intersecting,
    extremal_product_search,
    is_cross_t_intersecting,
    is_maximal_pair,
    is_maximal_t_intersecting,
    is_t_intersecting,
    mask_of,
)
from xfam.canon import canonical_form_tuple
from xfam.core import full_mask, subsets
from xfam.classify import count_theorem_1_2
from xfam.enumeration import (
    _bron_kerbosch,
    _coloured_graph,
    _compat_rows,
    _packed,
    maximal_cliques,
    maximal_cross_tuples,
)
from xfam.formulas import eval_g
from helpers import (
    bron_kerbosch_from,
    brute_maximal_families,
    brute_maximal_pairs,
    compat_rows_reference,
    cover_words_reference,
    enumerate_maximal_pairs,
    extremal_product_search_reference,
    sweep_maximal_pairs,
)


def test_intersection_graph(monkeypatch):
    verts, cliques = maximal_cliques(4, 2, 1)
    assert len(verts) == 6
    # {1,2} misses {3,4}: no clique holds both, though each lies in four
    # (two stars and two triangles)
    i = verts.index(mask_of([1, 2]))
    j = verts.index(mask_of([3, 4]))
    assert not any(c >> i & 1 and c >> j & 1 for c in cliques)
    assert sum(c >> i & 1 for c in cliques) == sum(c >> j & 1 for c in cliques) == 4
    # 1,365 vertices need 1,863,225 comparisons: refused before any table or row
    def no_table(*args):
        raise AssertionError("a subset table was built")

    monkeypatch.setattr(xfam.enumeration, "subsets", no_table)
    with pytest.raises(ValueError, match=r"C\(15,4\) = 1,365 vertices need 1,863,225 comparisons, over the budget of 1,300,000"):
        maximal_cliques(15, 4, 1)


@pytest.mark.parametrize("chunk", [xfam.core._BLOCK_WORDS, 1, 7], ids=["default", "chunk-1", "chunk-7"])
def test_compat_rows_match_the_pair_loop(chunk, monkeypatch):
    # rows of V bits either side of the byte and word boundaries, against an
    # empty, a one-set and a three-set side too; at chunk 7 a block holds 7,
    # 2 or 1 rows, at chunk 1 always one
    monkeypatch.setattr(xfam.core, "_BLOCK_WORDS", chunk)
    rng = random.Random(29)
    sets = [mask_of(rng.sample(range(1, 65), rng.randint(0, 64))) for _ in range(65)]
    for V in (1, 7, 8, 9, 63, 64, 65):
        verts = sets[:V]
        for other in (verts, (), sets[-1:], sets[-3:]):
            for t in (0, 1, 3, 30):
                assert _compat_rows(verts, other, t) == compat_rows_reference(verts, other, t), (V, len(other), t)
                assert _compat_rows(other, verts, t) == compat_rows_reference(other, verts, t), (V, len(other), t)


@pytest.mark.parametrize("chunk", [xfam.core._BLOCK_WORDS, 1, 7], ids=["default", "chunk-1", "chunk-7"])
def test_cover_words_match_the_two_step_packing(chunk, monkeypatch):
    # the cover table of `_cover_blocks`, the complement of the packed
    # relation blocks, against rows as ints packed word by word, at V either
    # side of the word boundaries; only its V valid bits are compared, since
    # the complement sets the bits past V, and `_packed` leaves those 0
    monkeypatch.setattr(xfam.core, "_BLOCK_WORDS", chunk)
    rng = random.Random(31)
    verts = [mask_of(rng.sample(range(1, 21), 8)) for _ in range(129)]
    cands = subsets(full_mask(20), 3).masks[::97]
    for V in (1, 63, 64, 65, 129):
        nwords = -(-V // 64)
        valid = cover_words_reference([0], verts[:V], 1)  # no vertex meets the empty set
        for t in (1, 2, 3):
            packed = _packed(np.array(cands, dtype=np.uint64), np.array(verts[:V], dtype=np.uint64), t)
            want = cover_words_reference(cands, verts[:V], t)
            assert packed.dtype == want.dtype and packed.shape == want.shape == (len(cands), nwords), (V, t)
            assert not (packed & ~valid).any(), (V, t)
            assert np.array_equal(~packed & valid, want), (V, t)


def test_enumeration_matches_brute_force():
    for (n, k, t) in [(4, 2, 1), (4, 3, 2), (4, 1, 1), (5, 2, 1), (5, 4, 3)]:
        got = [f.members for f in enumerate_maximal_t_intersecting(n, k, t)]
        assert got == brute_maximal_families(n, k, t)


@pytest.mark.parametrize("n,k,t", [(6, 3, 1), (7, 3, 1), (7, 4, 2), (9, 6, 5)])
def test_maximal_cliques_match_networkx(n, k, t):
    # (9,6,5): 84 vertices and 162 cliques, past the old 70-vertex cap
    verts, cliques = maximal_cliques(n, k, t)
    graph = nx.Graph()
    graph.add_nodes_from(range(len(verts)))
    graph.add_edges_from(
        (i, j) for i in range(len(verts)) for j in range(i) if (verts[i] & verts[j]).bit_count() >= t
    )
    got = {frozenset(i for i in range(len(verts)) if clique >> i & 1) for clique in cliques}
    assert len(got) == len(cliques)
    assert got == {frozenset(c) for c in nx.find_cliques(graph)}


def test_walk_through_v0_matches_the_walk_from_v0(monkeypatch):
    # every N[v0] graph of both kinds for n <= 7: v0 (index 0) is adjacent
    # to every other vertex, so the pivot rule makes it the only top-level
    # branch, and the plain walk lists the cliques of the walk entered at v0
    # in the same order; under a budget of 20,000 cliques, both walks refuse
    # the 11 graphs past it, (6,3,3,1) with 524,288 cliques among them
    monkeypatch.setattr(xfam.core, "BUDGET", 20_000)
    graphs = []
    monkeypatch.setattr(xfam.enumeration, "_bron_kerbosch", lambda rows, nverts, walked=0: graphs.append(rows) or [])
    for n in range(1, 8):
        for k in range(1, n + 1):
            for t in range(1, k + 1):
                maximal_cliques(n, k, t, through=(full_mask(k),))
        for k1 in range(1, n + 1):
            for k2 in range(1, n + 1):
                for t in range(1, min(k1, k2) + 1):
                    graphs.append(_coloured_graph(full_mask(n), (k1, k2), t, through_v0=True)[2])
    refused = 0
    for rows in graphs:
        assert all(rows[0] >> v & 1 for v in range(1, len(rows)))
        try:
            cliques = _bron_kerbosch(rows, len(rows))
        except ValueError:
            refused += 1
            with pytest.raises(ValueError, match="budget of 20,000 maximal cliques"):
                bron_kerbosch_from(rows, len(rows), 0)
            continue
        assert cliques == bron_kerbosch_from(rows, len(rows), 0)
        assert all(c & 1 for c in cliques)
    assert (len(graphs), refused) == (420, 11)


def test_walk_through_an_edge_lists_the_cliques_holding_both(monkeypatch):
    # every edge (v0, w_j) for n <= 7, w_j the first k-set in table order
    # meeting v0 = {1..k} in j elements: both are adjacent to every other
    # vertex of their common closed neighbourhood, so the pivot rule takes
    # v0 and then w_j, and the walk lists the maximal cliques of the full
    # walk holding both, in the order of the walk entered at v0
    graphs = []
    walk = xfam.enumeration._bron_kerbosch
    monkeypatch.setattr(
        xfam.enumeration, "_bron_kerbosch", lambda rows, nverts, walked=0: graphs.append(rows) or walk(rows, nverts)
    )
    edges = 0
    for n in range(2, 8):
        for k in range(2, n):
            v0 = full_mask(k)
            for t in range(1, k):
                verts, cliques = maximal_cliques(n, k, t)
                for j in range(t, k):
                    if n - k < k - j:
                        continue
                    w = full_mask(j) | full_mask(k - j) << k
                    assert w == next(v for v in verts if (v & v0).bit_count() == j)
                    near, through = maximal_cliques(n, k, t, through=(v0, w))
                    rows = graphs[-1]
                    assert near[:2] == (v0, w) and list(near[2:]) == sorted(near[2:])
                    assert all(rows[0] >> v & 1 and rows[1] >> v & 1 for v in range(2, len(rows)))
                    assert through == bron_kerbosch_from(rows, len(rows), 0)
                    got = {frozenset(near[i] for i in range(len(near)) if c >> i & 1) for c in through}
                    want = {frozenset(verts[i] for i in range(len(verts)) if c >> i & 1) for c in cliques}
                    assert len(got) == len(through)
                    assert got == {c for c in want if v0 in c and w in c}, (n, k, t, j)
                    edges += 1
    assert edges == 46
    # the sets walked through must be distinct and pairwise t-intersecting
    for through in ((7, 7), (7, 56), (7, 9)):
        with pytest.raises(ValueError, match="distinct, pairwise t-intersecting k-subsets"):
            maximal_cliques(6, 3, 2, through=through)


def test_enumeration_examples():
    assert len(enumerate_maximal_t_intersecting(4, 3, 2)) == 1
    fams = enumerate_maximal_t_intersecting(5, 2, 1)
    assert len(fams) == 15
    sizes = sorted(len(f) for f in fams)
    assert sizes == [3] * 10 + [4] * 5  # 10 triangles, 5 stars
    singles = enumerate_maximal_t_intersecting(4, 1, 1)
    assert len(singles) == 4 and all(len(f) == 1 for f in singles)


def test_enumeration_outputs_are_maximal_unique():
    fams = enumerate_maximal_t_intersecting(6, 3, 2)
    seen = set()
    for f in fams:
        assert is_t_intersecting(f, 2)
        assert is_maximal_t_intersecting(f, 2)
        assert f.members not in seen
        seen.add(f.members)


def test_maximal_pairs_match_definition_oracle():
    for (n, k1, k2, t) in [(4, 2, 2, 1), (4, 2, 2, 2), (4, 1, 2, 1), (4, 3, 2, 2)]:
        got = [(f.members, g.members) for f, g in enumerate_maximal_pairs(n, k1, k2, t)]
        assert got == brute_maximal_pairs(n, k1, k2, t)


def test_maximal_pairs_examples():
    pairs = enumerate_maximal_pairs(4, 2, 2, 1)
    as_sets = {(f.members, g.members) for f, g in pairs}
    single = Family.from_sets(4, 2, [(1, 2)])
    five = Family.from_sets(4, 2, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    tri = Family.from_sets(4, 2, [(1, 2), (1, 3), (2, 3)])
    assert (single.members, five.members) in as_sets
    assert (tri.members, tri.members) in as_sets

    pairs = enumerate_maximal_pairs(5, 2, 2, 1)
    as_sets = {(f.members, g.members) for f, g in pairs}
    star1 = anchored_family(5, 2, mask_of([1]))
    tri5 = Family.from_sets(5, 2, [(1, 2), (1, 3), (2, 3)])
    assert (star1.members, star1.members) in as_sets
    assert (tri5.members, tri5.members) in as_sets

    # t = k = 2 forces equal anchors: exactly the six ({S},{S}) pairs
    pairs = enumerate_maximal_pairs(4, 2, 2, 2)
    assert len(pairs) == 6
    assert all(f.members == g.members and len(f) == 1 for f, g in pairs)


def test_maximal_pairs_are_fixed_points():
    for f, g in enumerate_maximal_pairs(5, 2, 3, 1):
        assert is_cross_t_intersecting(f, g, 1)
        assert is_maximal_pair(f, g, 1)


def test_maximal_pairs_match_subset_sweep():
    # the same pairs as the sweep over every subfamily of side 1, ordered by
    # the members of F; with empty sides allowed, the pairs of the
    # coloured-clique kernel over a reduced universe are the same set
    for (n, k1, k2, t) in [(5, 2, 3, 1), (6, 2, 3, 1), (6, 2, 2, 2), (6, 1, 3, 1), (6, 2, 4, 2)]:
        verts1, verts2 = subsets(full_mask(n), k1).masks, subsets(full_mask(n), k2).masks
        got = [(f.members, g.members) for f, g in enumerate_maximal_pairs(n, k1, k2, t)]
        assert got == sorted(sweep_maximal_pairs(verts1, verts2, t)), (n, k1, k2, t)
    for universe in (mask_of([3, 4, 5, 6]), full_mask(8) & ~full_mask(3)):
        for (s1, s2, t) in [(2, 2, 1), (2, 3, 1), (3, 2, 1), (1, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 2), (1, 2, 2)]:
            verts1, verts2 = subsets(universe, s1).masks, subsets(universe, s2).masks
            got = maximal_cross_tuples(universe, (s1, s2), t)
            assert got == sorted(sweep_maximal_pairs(verts1, verts2, t, include_empty=True)), (universe, s1, s2, t)


def test_pair_cap(monkeypatch):
    # 1,430 vertices need 2,044,900 comparisons: refused before any table
    def no_table(*args):
        raise AssertionError("a subset table was built")

    monkeypatch.setattr(xfam.enumeration, "subsets", no_table)
    message = r"C\(13,4\) \+ C\(13,4\) = 1,430 vertices need 2,044,900 comparisons, over the budget of 1,300,000"
    with pytest.raises(ValueError, match=message):
        maximal_cross_tuples(full_mask(13), (4, 4), 1)


def _oracle_best_product(n: int, k: int, t: int, min_tau: int) -> int:
    """Independent sweep: for every nonempty subfamily F with tau >= min_tau,
    the best partner is the full star of F (covering numbers only grow with
    the family, so the filter is inherited by subsets)."""
    from itertools import combinations

    verts = sorted(mask_of(c) for c in combinations(range(1, n + 1), k))
    rows = []
    for a in verts:
        row = 0
        for j, b in enumerate(verts):
            if (a & b).bit_count() >= t:
                row |= 1 << j
        rows.append(row)
    full = (1 << len(verts)) - 1

    def tau_ge(members, bound):
        if not members:
            return False
        fam = Family.from_masks(n, k, members)
        return covering_number(fam, t).tau >= bound

    best = 0
    for sub in range(1, 1 << len(verts)):
        members = [verts[i] for i in range(len(verts)) if (sub >> i) & 1]
        if not tau_ge(members, min_tau):
            continue
        gmask = full
        m = sub
        while m:
            low = m & -m
            gmask &= rows[low.bit_length() - 1]
            m ^= low
        gmembers = [verts[j] for j in range(len(verts)) if (gmask >> j) & 1]
        if not tau_ge(gmembers, min_tau):
            continue
        best = max(best, len(members) * len(gmembers))
    return best


def test_known_pairs_appear_in_the_sweep_at_n6():
    from xfam import construct_A, construct_B

    pairs = {(f.members, g.members) for f, g in enumerate_maximal_pairs(6, 2, 2, 1)}
    tri = construct_A(6, 2, 1)
    assert (tri.members, tri.members) in pairs
    b1 = construct_B(6, 2, (1, 3, 2, 4))
    b2 = construct_B(6, 2, (1, 2, 3, 4))
    assert (b1.members, b2.members) in pairs


def test_search_star_pair_is_best_at_n5():
    res = extremal_product_search(5, 2, 2, 1, 1)
    assert res.best_product == 16
    assert not res.at_proved_threshold
    assert len(res.witnesses) == 1
    f, g = res.witnesses[0]
    assert len(f) == len(g) == 4
    assert canonical_form(f) == canonical_form(anchored_family(5, 2, mask_of([1])))


def test_search_matches_oracle_with_covering_floor():
    for (n, min_tau, expected) in [(4, 2, None), (5, 2, None)]:
        res = extremal_product_search(n, 2, 2, 1, min_tau)
        assert res.best_product == _oracle_best_product(n, 2, 1, min_tau)
        for f, g in res.witnesses:
            assert is_maximal_pair(f, g, 1)
            assert covering_number(f, 1).tau >= min_tau
            assert covering_number(g, 1).tau >= min_tau


def test_pruned_search_matches_unpruned_loop():
    # reference: covering numbers of both sides of every pair, in enumeration
    # order, then the canonical dedupe of the winners
    points = [(5, 2, 2, 1, 1), (6, 2, 2, 1, 2), (6, 2, 3, 1, 2), (7, 2, 2, 1, 2), (5, 2, 2, 1, 3)]
    points += [(5, 3, 3, 1, 1), (5, 3, 3, 1, 2), (6, 3, 2, 2, 3)]
    for (n, k1, k2, t, min_tau) in points:
        pairs = enumerate_maximal_pairs(n, k1, k2, t)
        best, winners = 0, []
        for f, g in pairs:
            if covering_number(f, t).tau < min_tau or covering_number(g, t).tau < min_tau:
                continue
            if len(f) * len(g) > best:
                best, winners = len(f) * len(g), [(f, g)]
            elif len(f) * len(g) == best:
                winners.append((f, g))
        seen, unique = set(), []
        for f, g in winners:
            key = canonical_form_tuple([f, g])
            if key not in seen:
                seen.add(key)
                unique.append((f.members, g.members))
        res = extremal_product_search(n, k1, k2, t, min_tau)
        assert res.best_product == best, (n, k1, k2, t, min_tau)
        assert [(f.members, g.members) for f, g in res.witnesses] == unique
        assert res.pairs_examined == len(pairs)
        if min_tau == 3:
            assert best == 0 and unique == []


def test_search_builds_families_only_for_groups_that_can_tie(monkeypatch):
    # (7,2,3,1) has 24,696 maximal pairs and best product 40; the walk
    # through v0 = {1,2} finds 6,540 pair cliques, 568 of them with product
    # >= 40, and only the 340 among those with both covering numbers >= 2
    # are decoded: F for each, G only for the first of each class
    built = []
    from_table = Family.from_table.__func__

    def counting_from_table(cls, *args):
        built.append(args)
        return from_table(cls, *args)

    monkeypatch.setattr(Family, "from_table", classmethod(counting_from_table))
    res = extremal_product_search(7, 2, 3, 1, 2)
    assert (res.best_product, res.pairs_examined) == (40, 24_696)
    assert len(res.witnesses) == 3
    assert len(built) == 340 + len(res.witnesses)


@pytest.mark.parametrize(
    "n,k1,k2,t,min_tau",
    [(5, 2, 2, 1, 1), (6, 2, 3, 1, 2), (6, 3, 3, 2, 2), (7, 2, 3, 1, 2), (8, 2, 2, 1, 2), (6, 3, 2, 2, 3)]
    + [(6, 2, 3, 1, 0), (6, 3, 3, 2, 0), (5, 3, 3, 1, 3), (6, 4, 4, 2, 4), (6, 2, 3, 1, 3), (7, 3, 2, 2, 4)]
    + [(4, 2, 2, 1, 4), (5, 2, 2, 1, 5), (6, 3, 2, 2, 6)],
)
def test_search_through_v0_matches_the_full_walk(n, k1, k2, t, min_tau):
    # best product, witnesses (members and order) and pairs_examined, the
    # last summed as C(n, k1) / |F| over the pairs with v0 in F; min-tau 0
    # builds no cover rows, t+2 tests the pairs against (t+1)-set rows and
    # n against (n-1)-set rows, which cover every family
    assert extremal_product_search(n, k1, k2, t, min_tau) == extremal_product_search_reference(n, k1, k2, t, min_tau)


@pytest.mark.parametrize("chunk", [1, 3 * 7])
def test_search_across_chunk_boundaries(monkeypatch, chunk):
    # (7,2,3,1) at min-tau 2 tests both sides of each clique against the
    # C(7,1) = 7 rows of 1-sets: blocks of one side, then of three sides,
    # so the two sides of a clique fall in different blocks
    expected = extremal_product_search_reference(7, 2, 3, 1, 2)
    monkeypatch.setattr(xfam.core, "_BLOCK_WORDS", chunk)
    assert extremal_product_search(7, 2, 3, 1, 2) == expected


def test_search_cover_rows_refused_before_the_walk(capsys, monkeypatch):
    # min-tau 9 at (16,2,3,1) needs the C(16,8) rows of 8-sets against the
    # 120 + 196 vertices of N[{1,2}]: refused, with no cover row built and
    # no clique walked
    def graph_tables_only(universe, size):
        assert size != 8, "a cover table was built"
        return subsets(universe, size)

    def no_walk(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(xfam.enumeration, "subsets", graph_tables_only)
    monkeypatch.setattr(xfam.enumeration, "_bron_kerbosch", no_walk)
    code = xfam.cli.main(["search", "--n", "16", "--k1", "2", "--k2", "3", "--t", "1", "--min-tau", "9"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: C(16,8) = 12,870 cover rows of 316 vertices need 4,066,920 comparisons, "
        "over the budget of 1,300,000\n"
    )


@pytest.mark.parametrize("n,k1,k2,t", [(5, 2, 2, 1), (5, 2, 3, 1), (6, 2, 3, 1), (5, 3, 3, 1)])
def test_pair_classes_are_the_classes_of_f(n, k1, k2, t):
    # G = star(F) for a maximal pair, so the search may dedupe winners by F
    pairs = enumerate_maximal_pairs(n, k1, k2, t)

    def partition(key):
        classes = {}
        for i, pair in enumerate(pairs):
            classes.setdefault(key(pair), []).append(i)
        return sorted(classes.values())

    assert partition(lambda fg: canonical_form(fg[0])) == partition(lambda fg: canonical_form_tuple(list(fg)))


def test_cover_rows_refused_before_any_cover_table(monkeypatch):
    # 84,672,315 cover rows of one vertex: the walk runs, no cover table
    # (of 10- or 11-sets) is built
    def graph_tables_only(universe, size):
        assert size not in (10, 11), "a cover table was built"
        return subsets(universe, size)

    monkeypatch.setattr(xfam.enumeration, "subsets", graph_tables_only)
    message = (
        r"C\(30,10\) \+ C\(30,11\) = 84,672,315 cover rows of 1 vertices need 84,672,315 comparisons, "
        r"over the budget of 1,300,000"
    )
    with pytest.raises(ValueError, match=message):
        count_theorem_1_2(30, 30, 10)


def test_covering_bound_observation(capsys):
    # size bound driven by the partner's cover count, observed on enumerated
    # pairs (reported, not asserted: the guarantee lives at much larger n)
    t = 1
    holds = total = 0
    for f, g in enumerate_maximal_pairs(6, 2, 2, t):
        if covering_number(f, t).tau != t + 1 or covering_number(g, t).tau != t + 1:
            continue
        total += 1
        tg = len(covering_number(g, t).covers)
        if len(f) <= eval_g(tg, f.k, g.k, t, 6):
            holds += 1
    print(f"cover-count bound observed on {holds}/{total} maximal pairs at n=6")
    assert total > 0
