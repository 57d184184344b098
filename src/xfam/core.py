"""Ground-set, subset and family primitives.

Subsets of the ground set [n] = {1, ..., n} are plain Python ints used as
bitmasks: element i corresponds to bit i-1, so n <= 64 keeps every subset in
one machine word (Python ints are unbounded, but the cap keeps kernels cheap
and file formats unambiguous). A Family is an immutable k-uniform collection
of such masks in strictly increasing mask order.

Every family of "the size-subsets of a universe that meet every member of a
given family in >= t elements" is built from two pieces here: the cached
table `subsets(universe, size)` of all size-subsets in increasing mask order,
and the kernel `select(table, members, t)` that keeps the candidates meeting
every member in >= t elements. Covers, stars, cross checks, the
constructions and the template reconstructions all go through them.

`select` has two exact paths. Dense queries whose members use at most 20
bits rest on one identity: |c ∩ m| >= t iff |m ∖ c| <= |m| - t iff the
complement of c holds no (|m| - t + 1)-subset of m. That path marks the
up-set those subsets generate in one array over the 2^b subsets of [b], b
the members' top bit, and reads there each candidate's complement in [b]
(bits above b meet no member). The closure depends on the members and t
alone, so a bounded memo keeps it for every later query on the same members:
a family's covers at every size and its stars into every uniformity read one
closure. A caller that knows all its keys at once (the construction checks)
has `_read_meets` build their closures in bounded batches instead, one row
each of one array, each closure pass run once per batch. Every other query,
and every relation row the enumerations build, counts bits over the
(candidate, member) outer product in bounded blocks (`_meet_blocks`): no
Python loop over pairs of sets computes the relation.

On top of the raw masks this module provides the intersection predicates,
exact t-covering-number computation (all minimum covers, not just one), the
star operator (largest m-uniform family cross-t-intersecting a given one),
closure of pairs to maximal cross-t-intersecting position, and the
family text format used by the command line tools.
"""

from __future__ import annotations

import io
import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import combinations
from math import comb
from operator import or_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

MAX_GROUND_SET = 64
BUDGET = 1_300_000  # subset-table masks, vertex comparisons before a walk, maximal cliques during one

# the up-set path of `select` runs while the members use at most this many
# ground-set bits (a closure takes 2^b bytes, 1 MB at 20 bits) and from this
# many (candidate, member) pairs, or 2^b pairs if that is more
_UPSET_MAX_BITS = 20
_UPSET_PAIR_CUTOFF = 2_000
# 64-bit words the memo of up-set closures holds, each closure's flags and
# its key's member masks counted (2 MB; a closure at 20 bits takes 1 MB)
_UPSET_MEMO_WORDS = 1 << 18
# uint64 temporaries per numpy block (512 kB): the (row, column) pairs of a
# block of `_meet_blocks`, and the (clique, cover row) tests of a block of
# `enumeration._cover_blocks`, however many there are in all
_BLOCK_WORDS = 1 << 16
# one (shift, mask) per bit j < 6 of the up-set closure, applied to the 64
# subset flags packed in one little-endian uint64 word: bit i of the word is
# subset i, the mask selects the flags with bit j set, and their partners
# without it lie 2^j bits lower
_LOW_BIT_PASSES = tuple(
    (np.uint64(1 << j), np.uint64(sum(1 << i for i in range(64) if i >> j & 1))) for j in range(6)
)
# exhaustive cover sweep is used while C(|union|, s) stays below this
_COVER_SWEEP_CAP = 30_000


def mask_of(elements: Iterable[int]) -> int:
    """Bitmask of a collection of 1-based elements."""
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """1-based elements of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def full_mask(n: int) -> int:
    return (1 << n) - 1


def _check_budget(what: str, amount: int, unit: str = "comparisons") -> None:
    """Refuse a table of `amount` entries before it is built; `what` names
    what is counted."""
    if amount > BUDGET:
        raise ValueError(f"{what} need {amount:,} {unit}, over the budget of {BUDGET:,}")


class SubsetTable(NamedTuple):
    """Masks in increasing order, as a tuple and as a read-only uint64 array."""

    masks: tuple[int, ...]
    array: np.ndarray

    @classmethod
    def of(cls, masks: Iterable[int]) -> "SubsetTable":
        masks = tuple(masks)
        array = np.array(masks, dtype=np.uint64)
        array.flags.writeable = False
        return cls(masks, array)


@lru_cache(maxsize=1024)
def subsets(universe: int, size: int) -> SubsetTable:
    """All `size`-subsets of the mask `universe` in increasing mask order,
    built once per (universe, size); a table of more than BUDGET masks is
    refused before it is built."""
    bits = [1 << (e - 1) for e in elements_of(universe)]
    _check_budget(f"C({len(bits)},{size}) subsets", comb(len(bits), size), "masks")
    return SubsetTable.of(sorted(sum(c) for c in combinations(bits, size)))


def select(cands: SubsetTable, members: Sequence[int], t: int) -> tuple[int, ...]:
    """The candidates meeting every member in >= t elements, in table order.

    All of them when `members` is empty or t <= 0, none when a member has
    fewer than t elements. Otherwise one of two exact paths, by size:

    - up-set (`_outside_upset`), while b <= _UPSET_MAX_BITS and there are at
      least max(_UPSET_PAIR_CUTOFF, 2^b) (candidate, member) pairs, where b
      is the highest bit the members use. It rests on |c ∩ m| >= t iff
      |m ∖ c| <= |m| - t iff the complement of c holds no (|m| - t + 1)-subset
      of m, and once its closure is built a query costs one read per
      candidate, however many members there are;
    - the chunked outer product (`_outer_product`) otherwise.
    """
    masks = cands.masks
    if t <= 0 or not members:
        return masks
    if not masks:
        return ()
    b = max(members).bit_length()  # the top bit of their union
    if b <= _UPSET_MAX_BITS and len(masks) * len(members) >= max(_UPSET_PAIR_CUTOFF, 1 << b):
        return _outside_upset(cands, members, t)
    return _outer_product(cands, members, t)


def _outside_upset(cands: SubsetTable, members: Sequence[int], t: int) -> tuple[int, ...]:
    """The candidates whose complement lies outside the up-set of (members,
    t), read off the memo's closure. Needs t >= 1 and a member."""
    return _table_ints(cands, _complements_outside(_closures.flags(tuple(members), t), cands.array))


def _complements_outside(outside: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Whether `outside`, the flags of a key (members, t) over the 2^B
    subsets of [B], flags the complement of each uint64 mask: a mask meets
    every member in >= t elements iff it does. B is at least the members'
    top bit and a set is flagged iff its part below that bit is, so the
    complement is taken in [B]."""
    # int64 indexes without a cast, and the AND leaves the complement >= 0
    return outside.take(~masks.view(np.int64) & (len(outside) - 1))


def _read_meets(keys: Sequence[tuple[Sequence[int], int]], visit: Callable[[int, Callable], None]) -> None:
    """Call visit(i, read) once for each key i = (members, t), t >= 1 and a
    member, where read(masks) tells whether each uint64 mask meets every
    member in >= t elements; `visit` must not keep `read`. Keys whose members
    use b <= _UPSET_MAX_BITS bits are read off their up-set closures, which
    `_outside_flags` builds in batches of one b holding at most
    _UPSET_MEMO_WORDS words (or one closure), counted as `_ClosureMemo`
    counts them, each freed before the next is built. The others read the
    outer product (`_meets_all`)."""
    by_bits: dict[int, list[int]] = {}
    for i, (members, _) in enumerate(keys):
        by_bits.setdefault(max(max(members).bit_length(), 6), []).append(i)  # whole uint64 words
    for b, indexes in by_bits.items():
        if b > _UPSET_MAX_BITS:
            for i in indexes:
                visit(i, partial(_meets_all, members=keys[i][0], t=keys[i][1]))
            continue
        batches: list[list[int]] = [[]]
        words = 0
        for i in indexes:
            need = len(keys[i][0]) + (1 << b) // 8
            if batches[-1] and words + need > _UPSET_MEMO_WORDS:
                batches.append([])
                words = 0
            batches[-1].append(i)
            words += need
        for batch in batches:
            rows = _outside_flags([keys[i] for i in batch], b)
            for i, outside in zip(batch, rows):
                visit(i, partial(_complements_outside, outside))
            del rows, outside  # freed before the next batch is built


def _outside_flags(keys: Sequence[tuple[Sequence[int], int]], n: int) -> np.ndarray:
    """Read-only flags over the subsets of [n], one row of 2^n per key
    (members, t), n >= 6 and at least every key's top bit: a set is flagged
    in a row iff it holds no (|m| - t + 1)-subset of any member m of its key,
    so none is when a member has fewer than t elements. The rows lie end to
    end in one array, and each closure pass runs once over all of them."""
    up = np.zeros(len(keys) << n, dtype=np.bool_)
    rows_of: dict[int, list[int]] = {}
    for row, (_, t) in enumerate(keys):
        rows_of.setdefault(t, []).append(row)
    for t, rows in rows_of.items():
        low = np.array([m for row in rows for m in keys[row][0]], dtype=np.uint64)
        # the start of each member's row, as int64 indexes need no cast
        start = np.repeat(np.array(rows, dtype=np.int64) << n, [len(keys[row][0]) for row in rows])
        if t == 1:
            up[low.view(np.int64) + start] = True
            continue
        # column i holds the i-th lowest element of each member (0 past its
        # size); dropping t - 1 columns leaves each (|m| - t + 1)-subset once,
        # or, through a 0 column, a larger subset of m that adds nothing; a
        # member of fewer than t elements loses them all, and the empty set
        # flags nothing in its row
        cols = []
        rest = low
        for _ in range(max(int(np.bitwise_count(low).max()), t - 1)):
            cols.append(rest & (~rest + np.uint64(1)))
            rest = rest ^ cols[-1]
        for drop in combinations(cols, t - 1):
            up[(low ^ reduce(np.bitwise_or, drop)).view(np.int64) + start] = True
    # upward closure, one pass per bit, on the flags packed 64 to a word;
    # '<u8' keeps the bit order packbits gives on any host. A row spans
    # 2^(n-6) words, so no pair of halves crosses two rows
    words = np.packbits(up, bitorder="little").view("<u8")
    del up  # 2^n bytes a row, freed before the flags are unpacked
    for shift, mask in _LOW_BIT_PASSES:
        words |= (words << shift) & mask
    for j in range(n - 6):
        halves = words.reshape(-1, 2, 1 << j)
        halves[:, 1, :] |= halves[:, 0, :]
    outside = np.unpackbits((~words).view(np.uint8), bitorder="little").view(np.bool_).reshape(len(keys), 1 << n)
    outside.flags.writeable = False
    return outside


class _ClosureMemo:
    """The flags of `_outside_flags` by (members, t), built on first use. It
    holds at most _UPSET_MEMO_WORDS 64-bit words, counting each entry's flags
    and its key's member masks. It evicts the oldest entries before a build,
    so that the new flags do not join a full memo, and stores no entry
    larger than the bound."""

    def __init__(self) -> None:
        self.entries: dict[tuple[tuple[int, ...], int], np.ndarray] = {}
        self.words = 0

    def flags(self, members: tuple[int, ...], t: int) -> np.ndarray:
        key = (members, t)
        flags = self.entries.get(key)
        if flags is None:
            n = max(max(members).bit_length(), 6)  # whole uint64 words
            words = len(members) + (1 << n) // 8
            keep = words <= _UPSET_MEMO_WORDS
            while keep and self.words + words > _UPSET_MEMO_WORDS:
                old = next(iter(self.entries))
                self.words -= len(old[0]) + self.entries.pop(old).nbytes // 8
            flags = _outside_flags([key], n)[0]
            if keep:
                self.entries[key] = flags
                self.words += words
        return flags


_closures = _ClosureMemo()


def _meet_blocks(a: np.ndarray, b: np.ndarray, t: int) -> Iterator[np.ndarray]:
    """The relation |a[i] ∩ b[j]| >= t on two uint64 arrays, as boolean
    blocks of consecutive rows of a, each of about _BLOCK_WORDS pairs (at
    least one row), so the temporaries stay bounded however long a and b are."""
    step = max(1, _BLOCK_WORDS // max(1, len(b)))
    for i in range(0, len(a), step):
        yield np.bitwise_count(a[i : i + step, None] & b[None, :]) >= t


def _outer_product(cands: SubsetTable, members: Sequence[int], t: int) -> tuple[int, ...]:
    """The candidates whose row of `_meet_blocks` is all true."""
    return _table_ints(cands, _meets_all(cands.array, members, t))


def _meets_all(masks: np.ndarray, members: Sequence[int], t: int) -> np.ndarray:
    """Whether each of the uint64 `masks` meets every member in >= t
    elements, one boolean each, over the outer product in blocks."""
    blocks = _meet_blocks(masks, np.array(members, dtype=np.uint64), t)
    return np.concatenate([block.all(axis=1) for block in blocks])


def _table_ints(cands: SubsetTable, keep: np.ndarray) -> tuple[int, ...]:
    """The candidates where `keep` is true, as the ints of the table itself,
    so a cached result holds no copies."""
    masks = cands.masks
    return tuple([masks[j] for j in keep.nonzero()[0].tolist()])


def validate_params(n: int, k: int, t: int) -> None:
    if not (1 <= t <= k <= n <= MAX_GROUND_SET):
        raise ValueError(f"need 1 <= t <= k <= n <= {MAX_GROUND_SET}, got n={n} k={k} t={t}")


@dataclass(frozen=True)
class Family:
    """A k-uniform family over [n]; members are masks, strictly increasing."""

    n: int
    k: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (0 <= self.k <= self.n <= MAX_GROUND_SET):
            raise ValueError(f"bad family parameters n={self.n} k={self.k}")
        limit = full_mask(self.n)
        prev = -1
        for m in self.members:
            if m <= prev:
                raise ValueError("members must be strictly increasing (sorted, duplicate-free)")
            if m & ~limit:
                raise ValueError(f"member {m:#x} has bits above position n={self.n}")
            if m.bit_count() != self.k:
                raise ValueError(f"member {elements_of(m)} is not a {self.k}-set")
            prev = m

    @classmethod
    def from_table(cls, n: int, k: int, members: tuple[int, ...]) -> "Family":
        """A family of masks kept from the table subsets(full_mask(n), k), in
        its order, or a sorted union of k-subsets of [n] from such tables, or
        a fixed set S joined to each (k - |S|)-subset of the rest in table
        order: they are strictly increasing k-subsets of [n] already, so
        they are not checked again, only n and k are."""
        family = cls(n, k, ())
        object.__setattr__(family, "members", members)
        return family

    @classmethod
    def from_masks(cls, n: int, k: int, masks: Iterable[int]) -> "Family":
        return cls(n, k, tuple(sorted(set(masks))))

    @classmethod
    def from_sets(cls, n: int, k: int, sets: Iterable[Iterable[int]]) -> "Family":
        return cls.from_masks(n, k, (mask_of(s) for s in sets))

    @classmethod
    def complete(cls, n: int, k: int) -> "Family":
        """All k-subsets of [n]."""
        return cls.from_table(n, k, subsets(full_mask(n), k).masks)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, mask: int) -> bool:
        i = bisect_left(self.members, mask)
        return i < len(self.members) and self.members[i] == mask

    def to_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(elements_of(m) for m in self.members)

    def union_mask(self) -> int:
        u = 0
        for m in self.members:
            u |= m
        return u

    def common_mask(self) -> int:
        c = full_mask(self.n)
        for m in self.members:
            c &= m
        return c


def relabel(family: Family, perm: Sequence[int]) -> Family:
    """Apply a permutation of [n] (perm[i-1] is the image of element i)."""
    if sorted(perm) != list(range(1, family.n + 1)):
        raise ValueError("perm must be a permutation of [n]")
    masks = []
    for m in family.members:
        masks.append(mask_of(perm[e - 1] for e in elements_of(m)))
    return Family.from_masks(family.n, family.k, masks)


def anchored_family(n: int, k: int, S: int) -> Family:
    """All k-subsets of [n] containing S; rejects S outside [n] and |S| > k."""
    if S & ~full_mask(n):
        raise ValueError(f"anchor S must lie in [{n}]")
    s = S.bit_count()
    if not (s <= k <= n):
        raise ValueError(f"need |S| <= k <= n, got |S|={s} k={k} n={n}")
    return Family.from_table(n, k, tuple([S | m for m in subsets(full_mask(n) & ~S, k - s).masks]))


def is_cross_t_intersecting(F: Family, G: Family, t: int) -> bool:
    """True iff |f ∩ g| >= t for every f in F, g in G (vacuously true if empty)."""
    if F.n != G.n:
        raise ValueError("families live over different ground sets")
    return len(select(SubsetTable.of(F.members), G.members, t)) == len(F.members)


def is_t_intersecting(F: Family, t: int) -> bool:
    """True iff every two distinct members meet in >= t elements. A member
    meets itself in k, so past t = k only a family of at most one member is."""
    return len(F) <= 1 if t > F.k else is_cross_t_intersecting(F, F, t)


@dataclass(frozen=True)
class CoverStructure:
    """Minimum t-cover size together with ALL covers of that size."""

    tau: int
    covers: tuple[int, ...]
    union: int


def _covers_by_branching(members: Sequence[int], t: int, size: int) -> list[int]:
    """All size-`size` covers via deficit branching; complete because any such
    cover must hit a deficient member, and no smaller cover exists at this
    depth of the iterative deepening."""
    found: set[int] = set()
    seen: set[int] = set()

    def dfs(partial: int) -> None:
        if partial in seen:
            return
        seen.add(partial)
        budget = size - partial.bit_count()
        deficient = 0
        for m in members:
            need = t - (m & partial).bit_count()
            if need > 0:
                if need > budget:
                    return
                deficient = m
                break
        if not deficient:
            # iterative deepening guarantees no cover below the current size
            assert budget == 0
            found.add(partial)
            return
        if budget == 0:
            return
        rest = deficient & ~partial
        while rest:
            low = rest & -rest
            dfs(partial | low)
            rest ^= low

    dfs(0)
    return sorted(found)


def covering_number(family: Family, t: int) -> CoverStructure:
    """Exact minimum t-cover size tau, all covers of size tau, and their union.

    Iterative deepening on the cover size, candidates restricted to the union
    of the family (elements outside it never help a minimum cover).
    """
    if not family.members:
        raise ValueError("covering number is undefined for the empty family")
    if t > family.k:
        raise ValueError(f"no t-cover can exist for t={t} > k={family.k}")
    common = family.common_mask()
    if common.bit_count() >= t:
        size, covers = t, subsets(common, t).masks
    else:
        universe = family.union_mask()
        u = universe.bit_count()
        for size in range(t + 1, u + 1):
            if comb(u, size) <= _COVER_SWEEP_CAP:
                covers = select(subsets(universe, size), family.members, t)
            else:
                covers = tuple(_covers_by_branching(family.members, t, size))
            if covers:
                break
        else:
            raise AssertionError("unreachable: the union of the family covers it")
    return CoverStructure(size, covers, reduce(or_, covers, 0))


def star(family: Family, m: int, t: int) -> Family:
    """The largest m-uniform family cross-t-intersecting with `family`.

    Antitone in the input; star of the empty family is the complete family.
    """
    return Family.from_table(family.n, m, select(subsets(full_mask(family.n), m), family.members, t))


def closure_pair(F: Family, G: Family, t: int) -> tuple[Family, Family]:
    """(star(star(F, l), k), star(F, l)): the maximal cross-t-intersecting
    pair generated by F, which contains (F, G). One step is a fixed point,
    since the two star maps are antitone and star(star(X)) contains X, so
    star(star(star(F))) = star(F). It is a maximal pair containing (F, G),
    not the only one: at (4,2,2,1), ({12}, {13}) closes to ({12}, star{12})
    from F, but to (star{13}, {13}) from G. Rejects an empty side and a pair
    that is not cross t-intersecting."""
    if not (F.members and G.members):
        raise ValueError("closure of a pair with an empty side is degenerate")
    if not is_cross_t_intersecting(F, G, t):
        raise ValueError("the pair is not cross t-intersecting")
    G = star(F, G.k, t)
    return star(G, F.k, t), G


def is_maximal_pair(F: Family, G: Family, t: int) -> bool:
    """True iff the pair is a star fixed point (hence maximal)."""
    return star(G, F.k, t).members == F.members and star(F, G.k, t).members == G.members


def is_maximal_t_intersecting(F: Family, t: int) -> bool:
    """True iff no k-set outside F meets every member in >= t elements."""
    if not is_t_intersecting(F, t):
        raise ValueError("input family is not t-intersecting")
    return star(F, F.k, t).members == F.members


# ---------------------------------------------------------------------------
# family text format: optional "# n=<n> k=<k>" header, one member per line
# as space-separated 1-based element indices


def family_to_text(family: Family) -> str:
    lines = [f"# n={family.n} k={family.k}"]
    for m in family.members:
        lines.append(" ".join(str(e) for e in elements_of(m)))
    return "\n".join(lines) + "\n"


def family_from_text(text: str) -> Family:
    n = k = None
    rows: list[tuple[int, ...]] = []
    lines: list[str] = []  # "line <number> (<text>)" of each row, for errors
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].replace(",", " ").split():
                name, value = token[:2], token[2:]
                if name not in ("n=", "k="):
                    continue
                if not (value.isascii() and value.isdigit() and int(value) <= MAX_GROUND_SET):
                    raise ValueError(f"line {lineno} ({line!r}): {name[0]} must be an integer in 0..{MAX_GROUND_SET}")
                if name == "n=":
                    n = int(value)
                else:
                    k = int(value)
            continue
        lines.append(f"line {lineno} ({line!r})")
        try:
            rows.append(tuple(sorted(int(x) for x in line.split())))
        except ValueError:
            raise ValueError(f"{lines[-1]}: elements must be integers") from None
        if not all(1 <= e <= MAX_GROUND_SET for e in rows[-1]):
            raise ValueError(f"{lines[-1]}: elements must lie in 1..{MAX_GROUND_SET}")
        if len(set(rows[-1])) < len(rows[-1]):
            raise ValueError(f"{lines[-1]}: repeats an element")
    if rows:
        sizes = {len(r) for r in rows}
        if len(sizes) != 1:
            raise ValueError("family file mixes member sizes")
        inferred_k = sizes.pop()
    elif k is None:
        raise ValueError("empty family file needs an explicit '# n=.. k=..' header")
    else:
        inferred_k = k
    if k is not None and rows and k != inferred_k:
        raise ValueError(f"header says k={k} but members have size {inferred_k}")
    if n is None:
        n = max((max(r) for r in rows), default=0)
    else:
        for where, row in zip(lines, rows):
            if row[-1] > n:
                raise ValueError(f"{where}: element {row[-1]} lies above the header's n={n}")
    return Family.from_sets(n, inferred_k, rows)


def read_family(path: str | os.PathLike[str]) -> Family:
    with io.open(path, "r", encoding="utf-8") as fh:
        return family_from_text(fh.read())
