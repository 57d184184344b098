import os
import random
import subprocess
import sys
from itertools import combinations
from math import ceil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xfam import (
    Family,
    anchored_family,
    closure_pair,
    covering_number,
    elements_of,
    family_from_text,
    family_to_text,
    full_mask,
    is_cross_t_intersecting,
    is_maximal_pair,
    is_maximal_t_intersecting,
    is_t_intersecting,
    mask_of,
    relabel,
    star,
)
from xfam import core
from xfam.core import _UPSET_PAIR_CUTOFF, SubsetTable, select, subsets
from helpers import brute_covers, select_reference

SELECT_PATHS = ("_outside_upset", "_outer_product")


def fam(n, k, *sets):
    return Family.from_sets(n, k, sets)


def test_mask_roundtrip():
    assert elements_of(mask_of([3, 1, 5])) == (1, 3, 5)
    assert mask_of([]) == 0
    assert full_mask(4) == 0b1111


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


@pytest.fixture
def select_paths(monkeypatch):
    """The names of the `select` paths taken, in call order."""
    taken = []
    for name in SELECT_PATHS:

        def spy(*args, _name=name, _real=getattr(core, name)):
            taken.append(_name)
            return _real(*args)

        monkeypatch.setattr(core, name, spy)
    return taken


def test_subsets_and_select_match_loops(select_paths):
    universe = mask_of([1, 3, 4, 6, 7, 9, 10, 11, 12, 14])
    table = subsets(universe, 4)
    assert table.masks == tuple(sorted(mask_of(c) for c in combinations(elements_of(universe), 4)))
    assert table.array.tolist() == list(table.masks)
    rng = random.Random(5)
    # 3 members: below the up-set cutoff, the outer product; 200 members:
    # past 2^14 pairs, the up-set
    for count, path in ((3, "_outer_product"), (200, "_outside_upset")):
        members = [mask_of(rng.sample(range(1, 15), 6)) for _ in range(count)]
        assert (len(table.masks) * count >= max(_UPSET_PAIR_CUTOFF, 1 << 14)) == (count == 200)
        for t in (1, 2):
            expect = tuple(c for c in table.masks if all((c & m).bit_count() >= t for m in members))
            select_paths.clear()
            assert select(table, members, t) == expect
            assert select_paths == [path]
    # the chunked outer product: past 20 bits, or below 2^n pairs
    for universe, top, count in ((universe | mask_of([21, 22]), 22, 200), (full_mask(18), 18, 40)):
        table = subsets(universe, 4 if top == 22 else 3)
        members = [mask_of(rng.sample(range(1, top + 1), 6)) for _ in range(count)]
        for t in (1, 2):
            select_paths.clear()
            assert select(table, members, t) == select_reference(table, members, t)
            assert select_paths == ["_outer_product"]


def _select_cases():
    """(table, members, t) inputs for the `select` oracle test: the trivial
    answers, every path and the edges of each."""
    rng = random.Random(11)

    def sets(top, sizes, count):
        return [mask_of(rng.sample(range(1, top + 1), rng.choice(sizes))) for _ in range(count)]

    def full(n, k):
        return subsets(full_mask(n), k)

    yield full(6, 3), [], 2  # no members: every candidate
    yield full(6, 3), [], 0
    yield subsets(mask_of([1, 2, 3]), 4), sets(6, [3], 5), 1  # empty table
    yield subsets(mask_of([1, 2, 3]), 4), sets(6, [3], 5000), 1
    yield SubsetTable.of(()), [], 1
    for t in (0, -1):
        yield full(8, 3), sets(8, [4], 30), t
        yield full(8, 3), sets(8, [4], 3000), t
    # a member with fewer than t elements: no candidate
    yield full(10, 4), sets(10, [4], 40) + [mask_of([5])], 2
    yield full(10, 4), sets(10, [4], 40) + [0], 1
    # all-zero masks (n = 0)
    for t in (0, 1, 2):
        yield subsets(0, 0), [0] * 3, t
        yield subsets(0, 0), [0] * 3000, t
        yield full(4, 2), [0], t
    # members of mixed sizes
    for count in (4, 20, 300):
        for t in (1, 2, 3):
            yield full(12, 4), sets(12, range(max(t, 2), 7), count), t
    # a table over a proper universe, as covering_number uses
    for count in (5, 200, 3000):
        yield subsets(mask_of([2, 5, 7, 8, 11, 13]), 3), sets(14, [4], count), 1
        yield subsets(mask_of([2, 5, 7, 8, 11, 13]), 4), [m | 0b10010 for m in sets(14, [3], count)], 3
    # fewer than 8 subsets of the ground set
    for n in (1, 2):
        for count in (3, 2000):
            yield full(n, 1), sets(n, [1, n], count), 1
            yield full(n, n), sets(n, [n], count), n
    # either side of the up-set cutoff at 20 bits; the {1, 2, 3} anchor keeps
    # some candidates alive
    for n in (20, 21):
        yield full(n, 3), [m | 0b111 for m in sets(n, [6, 8], 1000)], 2
        yield full(n, 4), [m | 0b111 for m in sets(n, [6], 60)], 3
    # members over [b] and a table over [b + 1..3]: the candidates' bits
    # above the members' top bit b, t from 1 to 4, members of mixed sizes,
    # and enough pairs for the up-set path up to b = 20
    for b in range(1, 21):
        t = 1 + b % 4
        table = full(b + 1 + b % 3, min(t + 1, b + 1))
        anchor = full_mask(min(t, b)) | 1 << (b - 1)
        count = ceil(max(_UPSET_PAIR_CUTOFF, 1 << b) / len(table.masks))
        members = [m | anchor for m in sets(b, range(1, b + 1), count)]
        yield table, members, t
        # and a member of t - 1 elements: no candidate
        short = mask_of(rng.sample(range(1, b), t - 2)) | 1 << (b - 1) if t > 1 else 0
        yield table, members + [short], t
    # random shapes
    for _ in range(60):
        n = rng.randint(1, 14)
        members = sets(n, range(n + 1), rng.choice([1, 5, 40, 400]))
        yield full(n, rng.randint(0, n)), members, rng.randint(-1, 4)


def test_select_matches_reference_on_every_path(select_paths):
    seen = set()
    for table, members, t in _select_cases():
        expect = select_reference(table, members, t)
        select_paths.clear()
        assert select(table, members, t) == expect, (len(table.masks), len(members), t)
        seen.update(select_paths)
        if t >= 1 and members and table.masks:
            # every path is exact wherever it can run, whatever its cost,
            # members with fewer than t elements included
            assert core._outside_upset(table, members, t) == expect
            assert core._outer_product(table, members, t) == expect
        else:
            assert select_paths == []
    assert seen == set(SELECT_PATHS)


def test_upset_path_spans_the_members_bits(select_paths):
    # 4,145 members over [b] against the 2-subsets of [23]: the up-set path
    # runs while b <= 20, whatever the top bit of the table
    rng = random.Random(31)
    table = subsets(full_mask(23), 2)
    for b, path in ((20, "_outside_upset"), (21, "_outer_product")):
        members = [mask_of(rng.sample(range(2, b), 3)) | mask_of([1, b]) for _ in range(4145)]
        assert len(table.masks) * len(members) >= 1 << 20
        select_paths.clear()
        assert select(table, members, 2) == select_reference(table, members, 2)
        assert select_paths == [path]


@pytest.fixture
def closures_built(monkeypatch):
    """An empty closure memo, and the (members, t) of each closure built."""
    built = []
    real = core._outside_flags

    def spy(keys, n):
        built.extend(keys)
        return real(keys, n)

    monkeypatch.setattr(core, "_closures", core._ClosureMemo())
    monkeypatch.setattr(core, "_outside_flags", spy)
    return built


def test_covers_and_stars_of_a_family_read_one_closure(closures_built):
    from xfam import construct_A

    # each cover size from t + 1 to tau and each star size takes the up-set path
    for F, t, tau in ((Family.complete(10, 4), 1, 7), (Family.complete(10, 4), 2, 8), (construct_A(14, 6, 2), 2, 3)):
        closures_built.clear()
        assert covering_number(F, t).tau == tau
        for m in range(2, F.n - 1):
            table = subsets(full_mask(F.n), m)
            assert star(F, m, t).members == select_reference(table, F.members, t)
            assert len(table.masks) * len(F) >= max(_UPSET_PAIR_CUTOFF, 1 << F.n)
        assert closures_built == [(F.members, t)]


def test_closure_memo_stays_within_its_bound(closures_built, monkeypatch):
    # closures over 10 bits take 128 words each, plus 4 for their key's
    # members: 22 fit in 3,000 words
    monkeypatch.setattr(core, "_UPSET_MEMO_WORDS", 3000)
    memo = core._closures

    def words():
        return sum(len(members) + flags.nbytes // 8 for (members, _), flags in memo.entries.items())

    rng = random.Random(41)
    table = subsets(full_mask(10), 3)
    keys = []
    for _ in range(40):
        members = tuple(mask_of(rng.sample(range(1, 10), 4)) | 1 << 9 for _ in range(4))
        keys.append((members, 2))
        assert core._outside_upset(table, members, 2) == select_reference(table, members, 2)
        assert memo.words == words() <= 3000
        # the newest closures stay, oldest evicted first
        assert list(memo.entries) == keys[-len(memo.entries) :]
    assert len(memo.entries) == 22 and len(closures_built) == 40
    # a hit builds nothing
    assert core._outside_upset(table, keys[-1][0], 2) == select_reference(table, keys[-1][0], 2)
    assert len(closures_built) == 40
    # a closure over 16 bits takes 8,192 words: it is used, not stored, and
    # evicts nothing
    held = list(memo.entries)
    members = (mask_of([1, 2, 16]), mask_of([2, 3, 16]))
    table = subsets(full_mask(16), 2)
    assert core._outside_upset(table, members, 2) == select_reference(table, members, 2)
    assert list(memo.entries) == held and memo.words == words()


def _closure_keys(bits):
    """(members, t) over `bits` bits: up to 6 members of at most 7 elements,
    the empty member and members shorter than t among them, t from 1 to 4."""
    member = st.sets(st.integers(1, bits), max_size=7).map(mask_of)
    members = st.lists(member, min_size=1, max_size=6).map(lambda ms: tuple(sorted(set(ms))))
    return st.tuples(members, st.integers(1, 4))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_batched_closures_equal_one_key_closures_and_the_reference(data):
    n = data.draw(st.integers(6, 20), label="n")
    keys = data.draw(st.lists(_closure_keys(n), min_size=1, max_size=4), label="keys")
    if n <= 10:  # every flag
        cands = SubsetTable.of(range(1 << n))
    else:
        cands = SubsetTable.of(sorted(set(data.draw(st.lists(st.integers(0, full_mask(n)), min_size=1, max_size=40)))))
    rows = core._outside_flags(keys, n)
    assert rows.shape == (len(keys), 1 << n) and not rows.flags.writeable
    for key, row in zip(keys, rows):
        assert np.array_equal(row, core._outside_flags([key], n)[0])
        assert core._table_ints(cands, core._complements_outside(row, cands.array)) == select_reference(cands, *key)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_meet_readers_build_bounded_batches(data):
    # members over 1 to 24 bits, so closures of 6 to 20 bits and outer
    # products past 20, under word bounds that split most batches
    keys = data.draw(st.lists(_closure_keys(24), min_size=1, max_size=8), label="keys")
    bound = data.draw(st.integers(8, 5_000), label="bound")
    cands = SubsetTable.of(sorted(set(data.draw(st.lists(st.integers(0, full_mask(24)), min_size=1, max_size=40)))))
    batches, seen = [], []
    real = core._outside_flags

    def spy(batch, b):
        batches.append((list(batch), b))
        return real(batch, b)

    def visit(i, read):
        seen.append(i)
        assert core._table_ints(cands, read(cands.array)) == select_reference(cands, *keys[i])

    with mock.patch.object(core, "_UPSET_MEMO_WORDS", bound), mock.patch.object(core, "_outside_flags", spy):
        core._read_meets(keys, visit)
    assert sorted(seen) == list(range(len(keys)))
    for batch, b in batches:
        assert 6 <= b <= core._UPSET_MAX_BITS
        assert all(max(max(members).bit_length(), 6) == b for members, _ in batch)
        assert len(batch) == 1 or sum(len(members) + (1 << b) // 8 for members, _ in batch) <= bound
    closed = [key for batch, _ in batches for key in batch]
    assert len(closed) == sum(max(max(members).bit_length(), 6) <= core._UPSET_MAX_BITS for members, _ in keys)


def test_meet_readers_fill_each_batch_to_the_bound(monkeypatch):
    # twelve closures over 10 bits take 130 words each: 1,000 words hold 7
    monkeypatch.setattr(core, "_UPSET_MEMO_WORDS", 1_000)
    sizes = []
    real = core._outside_flags
    monkeypatch.setattr(core, "_outside_flags", lambda keys, n: sizes.append(len(keys)) or real(keys, n))
    keys = [((mask_of([1, 10]), mask_of([2 + i % 8, 10])), 1) for i in range(12)]
    core._read_meets(keys, lambda i, read: None)
    assert sizes == [7, 5]


def test_anchored_family():
    assert anchored_family(3, 2, mask_of([1])).to_sets() == ((1, 2), (1, 3))
    assert len(anchored_family(4, 2, 0)) == 6
    f = anchored_family(5, 3, mask_of([1, 2]))
    assert f.to_sets() == ((1, 2, 3), (1, 2, 4), (1, 2, 5))
    with pytest.raises(ValueError):
        anchored_family(3, 2, mask_of([1, 4]))  # S outside [n]
    with pytest.raises(ValueError):
        anchored_family(5, 1, mask_of([1, 2]))  # |S| > k


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


def test_is_t_intersecting_matches_pairwise_loop(select_paths):
    # only distinct members are compared: past t = k, a family of at most
    # one member still qualifies
    from helpers import random_family

    def pairwise(f, t):
        return all((a & b).bit_count() >= t for a, b in combinations(f.members, 2))

    rng = random.Random(23)
    families = [Family(5, 3, ()), fam(5, 3, (1, 2, 3)), fam(5, 3, (1, 2, 3), (1, 2, 4))]
    families += [Family.complete(8, 4), Family.complete(9, 7)]
    for n in range(1, 10):
        families += [random_family(rng, n, rng.randint(0, n), rng.choice([3, 12, 80])) for _ in range(8)]
    for f in families:
        for t in range(-1, f.k + 3):
            assert is_t_intersecting(f, t) == pairwise(f, t), (f, t)
    # t = 4 > k = 3 with 0, 1 and 2 members
    assert [is_t_intersecting(f, 4) for f in families[:3]] == [True, True, False]
    assert set(select_paths) == set(SELECT_PATHS)


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


def test_star_antitone():
    small = fam(5, 2, (1, 2))
    big = fam(5, 2, (1, 2), (3, 4))
    assert set(star(big, 2, 1).members) <= set(star(small, 2, 1).members)


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
    # a 1-set against a 2-set: the 2-uniform side fills the whole star
    f, g = closure_pair(fam(6, 1, (3,)), fam(6, 2, (3, 4)), 1)
    assert f.to_sets() == ((3,),)
    assert set(g.to_sets()) == {(1, 3), (2, 3), (3, 4), (3, 5), (3, 6)}
    with pytest.raises(ValueError):  # not cross t-intersecting
        closure_pair(fam(4, 2, (1, 2)), fam(4, 2, (3, 4)), 1)


def test_closure_pair_is_not_unique():
    # ({12}, {13}) lies in two maximal pairs: the one F generates and the
    # one G generates, each a star fixed point
    f, g = closure_pair(fam(4, 2, (1, 2)), fam(4, 2, (1, 3)), 1)
    assert f.to_sets() == ((1, 2),)
    assert set(g.to_sets()) == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)}
    assert is_maximal_pair(f, g, 1)
    g, f = closure_pair(fam(4, 2, (1, 3)), fam(4, 2, (1, 2)), 1)
    assert g.to_sets() == ((1, 3),)
    assert set(f.to_sets()) == {(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)}
    assert is_maximal_pair(f, g, 1)


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


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task to count threads")
def test_import_starts_no_blas_thread():
    # a fresh interpreter: after `import xfam` the process runs one thread,
    # since numpy's OpenBLAS starts no worker; a value set beforehand is kept
    probe = "import os, xfam; print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    for preset, expected in ((None, "1 1"), ("2", "2 ")):
        env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = src
        if preset:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(expected), (preset, proc.stdout)
