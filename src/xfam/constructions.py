"""Generators for the explicit extremal families and their self-verification.

Each shape has one member builder that takes its anchors as masks and
selects, from the shared k-subset table in `core`, the k-sets meeting each
of its anchor sets in at least t elements; the proof sits beside each.
`classify` reads the same anchor sets off the minimum covers. The
generators here place the anchors at the low indices of [n]; closed-form
sizes live in `formulas` and the test suite cross-checks both paths against
inclusion-exclusion counts.

`verify_grid` and `verify_construction` share one engine, `_verify`. It
builds each distinct family once and reads every check off the up-set
closure of one (family, t), however many pairs hold that family: whether
another family lies inside its star (the cross check), how many sets of an
(n, m) table lie inside it (the star fixed point) and whether a (t+1)-set
covers it (the covering number). Since F's members are k-subsets of [n],
F and G are cross t-intersecting iff F lies inside star(G, k), and the pair
is a star fixed point iff moreover star(G, k) has |F| members and star(F, l)
has |G|. The closures are built in batches of bounded size, each freed once
its checks are read; past `core._UPSET_MAX_BITS` bits the same checks read
the outer product.

Kinds, by their anchor sets:
  A(M0)        - M0 alone, met in t+1 elements;
  B(a1..a4)    - {a2,a3}, {a2,a4} and {a1,a3}, at t = 1;
  C1(P, L)     - P and every P - e + x (e in P, x in L - P);
  C2(P, L)     - P and every L - e (e in P), the C1 specials;
  H(T, X, Y)   - every T + x (x in X) and Y cup (T - e) (e in T);
  D(T; x1..x4) - the minimum covers T+{x1,x2}, T+{x3,x4} and T+{x2,x3}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .core import Family, _read_meets, elements_of, full_mask, mask_of, select, subsets, validate_params
from .formulas import PAIR_FORMULAS, binom, eval_a, eval_c1, eval_c2, eval_h


# ---------------------------------------------------------------------------
# member builders at arbitrary anchors (masks)


def _a_members(n: int, k: int, t: int, M0: int) -> tuple[int, ...]:
    """k-sets meeting M0 in at least t+1 elements."""
    return select(subsets(full_mask(n), k), (M0,), t + 1)


def _b_members(n: int, k: int, quad: tuple[int, int, int, int]) -> tuple[int, ...]:
    """k-sets containing {a1,a2}, {a2,a3} or {a3,a4}."""
    # a k-set holding a2 meets {a1,a3}, so holds {a1,a2} or {a2,a3}; one
    # without a2 meets {a2,a3} and {a2,a4}, so holds {a3,a4}
    a1, a2, a3, a4 = (1 << (a - 1) for a in quad)
    return select(subsets(full_mask(n), k), (a2 | a3, a2 | a4, a1 | a3), 1)


def _c1_members(n: int, l: int, Pm: int, Lm: int) -> tuple[int, ...]:
    """l-sets containing P, plus L minus one element of P."""
    # an l-set missing e in P meets P - e' + x (e' != e) in t elements only
    # through x, so holds P - e and all of L - P: it is L - e
    t = Pm.bit_count() - 1
    swaps = [(Pm ^ (1 << (e - 1))) | (1 << (x - 1)) for e in elements_of(Pm) for x in elements_of(Lm & ~Pm)]
    return select(subsets(full_mask(n), l), [Pm, *swaps], t)


def _c2_members(n: int, k: int, t: int, Pm: int, Lm: int) -> tuple[int, ...]:
    """k-sets containing P, or meeting P in exactly t with a hit in L minus P."""
    # a k-set holding P meets each L - e in P - e; one missing e in P meets
    # L - e' (e' != e) in t-1 elements of P, so needs a hit in L - P
    specials = [Lm ^ (1 << (e - 1)) for e in elements_of(Pm)]
    return select(subsets(full_mask(n), k), [Pm, *specials], t)


def _h_members(n: int, k: int, Tm: int, Xm: int, Ym: int) -> tuple[int, ...]:
    """k-sets containing T and meeting Y, plus X cup T minus one element of T."""
    # a k-set holding T meets Y cup (T - e) past T - e only in Y; one missing
    # e in T meets each T + x only in x, so is X cup (T - e), and meets each
    # Y cup (T - e') in t when |X cap Y| >= 1 at t = 1, >= 2 otherwise
    t = Tm.bit_count()
    spokes = [Tm | (1 << (x - 1)) for x in elements_of(Xm)]
    specials = [Ym | (Tm ^ (1 << (e - 1))) for e in elements_of(Tm)]
    return select(subsets(full_mask(n), k), spokes + specials, t)


# ---------------------------------------------------------------------------
# the generators at default anchors


@lru_cache(maxsize=4096)
def construct_A(n: int, k: int, t: int) -> Family:
    """All k-sets meeting [t+2] in at least t+1 elements."""
    if not (t + 1 <= k <= n) or n < t + 2:
        raise ValueError(f"need t+1 <= k <= n and n >= t+2, got n={n} k={k} t={t}")
    return Family.from_table(n, k, _a_members(n, k, t, full_mask(t + 2)))


@lru_cache(maxsize=4096)
def construct_B(n: int, k: int, quad: tuple[int, int, int, int]) -> Family:
    """Union of the intervals anchored at {a1,a2}, {a2,a3}, {a3,a4}."""
    if len(set(quad)) != 4 or not all(1 <= a <= n for a in quad):
        raise ValueError(f"quad must be four distinct elements of [n], got {quad}")
    if k < 2:
        raise ValueError("need k >= 2")
    return Family.from_table(n, k, _b_members(n, k, quad))


@lru_cache(maxsize=4096)
def construct_C1(n: int, l: int, t: int) -> Family:
    """The t+1 sets [l+1] minus one of [t+1], plus all l-sets containing [t+1]."""
    if not (t + 1 <= l) or n < l + 1:
        raise ValueError(f"need l >= t+1 and n >= l+1, got n={n} l={l} t={t}")
    return Family.from_table(n, l, _c1_members(n, l, full_mask(t + 1), full_mask(l + 1)))


@lru_cache(maxsize=4096)
def construct_C2(n: int, k: int, t: int, l: int) -> Family:
    """k-sets meeting [t+1] in exactly t with a hit in [t+2, l+1], plus the
    [t+1]-anchored interval."""
    if not (t + 1 <= k <= n) or not (t + 1 <= l) or n < l + 1:
        raise ValueError(f"need k, l >= t+1 and n >= l+1, got n={n} k={k} l={l} t={t}")
    return Family.from_table(n, k, _c2_members(n, k, t, full_mask(t + 1), full_mask(l + 1)))


@lru_cache(maxsize=4096)
def construct_H(n: int, k: int, t: int, X: tuple[int, ...], Y: tuple[int, ...]) -> Family:
    """k-sets containing [t] and meeting Y, plus the sets X cup [t] minus one
    anchor element. X and Y must avoid [t] and overlap enough (one common
    element at t = 1, two otherwise)."""
    X, Y = tuple(sorted(X)), tuple(sorted(Y))
    if not all(t < e <= n for e in X + Y):
        raise ValueError("X and Y must live inside [t+1, n]")
    if len(set(X)) != len(X) or len(set(Y)) != len(Y):
        raise ValueError(f"X and Y must not repeat an element, got X={X} Y={Y}")
    xm, ym = mask_of(X), mask_of(Y)
    if len(X) != k - t + 1:
        raise ValueError(f"|X| must be k-t+1 = {k - t + 1}, got {len(X)}")
    need = 1 if t == 1 else 2
    if (xm & ym).bit_count() < need:
        raise ValueError(f"need |X ∩ Y| >= {need}")
    return Family.from_table(n, k, _h_members(n, k, full_mask(t), xm, ym))


@lru_cache(maxsize=4096)
def construct_D(n: int, k: int, t: int, T: tuple[int, ...], xs: tuple[int, int, int, int]) -> Family:
    """Three-cover family: intervals over T+{x1,x3}, T+{x2,x4}, T+{x2,x3}
    plus every k-set meeting T+{x1..x4} in at least t+2 elements."""
    if len(T) != t - 1:
        raise ValueError(f"anchor T must have t-1 = {t - 1} elements, got {T}")
    pts = tuple(T) + tuple(xs)
    if len(set(pts)) != len(pts) or len(xs) != 4 or not all(1 <= e <= n for e in pts):
        raise ValueError("T and x1..x4 must be distinct elements of [n]")
    if k < t + 1:
        raise ValueError("need k >= t+1")
    # a k-set meeting T+{x1,x2}, T+{x3,x4} and T+{x2,x3} in t elements holds
    # T and x1 or x2, x3 or x4, x2 or x3: one of the intervals; or it misses
    # one element of T and holds x1..x4, meeting T+{x1..x4} in t+2
    x1, x2, x3, x4 = xs
    covers = [mask_of(T + pair) for pair in ((x1, x2), (x3, x4), (x2, x3))]
    return Family.from_table(n, k, select(subsets(full_mask(n), k), covers, t))


def default_D_anchors(t: int) -> tuple[tuple[int, ...], tuple[int, int, int, int]]:
    T = tuple(range(1, t))
    xs = (t, t + 1, t + 2, t + 3)
    return T, xs


@dataclass(frozen=True)
class ConstructionSpec:
    """Parameters of one generated family; `build` materializes it."""

    kind: str
    n: int
    k: int
    t: int
    l: int | None = None
    quad: tuple[int, int, int, int] | None = None
    X: tuple[int, ...] | None = None
    Y: tuple[int, ...] | None = None
    T: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        validate_params(self.n, self.k, self.t)

    def _need(self, **fields) -> None:
        missing = [name for name, value in fields.items() if value is None]
        if missing:
            raise ValueError(f"kind {self.kind} needs {', '.join(missing)}")

    def build(self) -> Family:
        if self.kind == "A":
            return construct_A(self.n, self.k, self.t)
        if self.kind == "B":
            if self.t != 1:
                raise ValueError("the three-interval family requires t = 1")
            self._need(quad=self.quad)
            return construct_B(self.n, self.k, self.quad)
        if self.kind == "C1":
            return construct_C1(self.n, self.k, self.t)
        if self.kind == "C2":
            self._need(l=self.l)
            return construct_C2(self.n, self.k, self.t, self.l)
        if self.kind == "H":
            self._need(X=self.X, Y=self.Y)
            return construct_H(self.n, self.k, self.t, self.X, self.Y)
        if self.kind == "D":
            self._need(T=self.T, quad=self.quad)
            return construct_D(self.n, self.k, self.t, self.T, self.quad)
        raise ValueError(f"unknown construction kind {self.kind!r}")

    def closed_form(self) -> int:
        if self.kind == "A":
            return eval_a(self.k, self.t, self.n)
        if self.kind == "B":
            return eval_a(self.k, 1, self.n)
        if self.kind == "C1":
            return eval_c1(self.k, self.t, self.n)
        if self.kind == "C2":
            return eval_c2(self.k, self.l, self.t, self.n)
        if self.kind == "H":
            partner = len(self.Y) + self.t - 1
            return eval_h(self.k, partner, self.t, self.n)
        if self.kind == "D":
            return eval_a(self.k, self.t, self.n) - (self.t - 1) * binom(self.n - self.t - 3, self.k - self.t - 1)
        raise ValueError(f"unknown construction kind {self.kind!r}")


PAIR_KINDS = tuple(PAIR_FORMULAS)


def construction_pair(pair_kind: str, n: int, k: int, l: int, t: int) -> tuple[ConstructionSpec, ConstructionSpec]:
    """Default-anchored cross-t-intersecting pair of the given kind; the first
    spec is k-uniform except for CC, whose first side is the l-uniform one."""
    if pair_kind == "AA":
        return (
            ConstructionSpec("A", n, k, t),
            ConstructionSpec("A", n, l, t),
        )
    if pair_kind == "BB":
        if t != 1:
            raise ValueError("BB pairs exist only at t = 1")
        return (
            ConstructionSpec("B", n, k, 1, quad=(1, 3, 2, 4)),
            ConstructionSpec("B", n, l, 1, quad=(1, 2, 3, 4)),
        )
    if pair_kind == "CC":
        return (
            ConstructionSpec("C1", n, l, t),
            ConstructionSpec("C2", n, k, t, l=l),
        )
    if pair_kind == "HH":
        X = tuple(range(t + 1, k + 2))
        Y = tuple(range(t + 1, l + 2))
        return (
            ConstructionSpec("H", n, k, t, X=X, Y=Y),
            ConstructionSpec("H", n, l, t, X=Y, Y=X),
        )
    if pair_kind == "DD":
        T, xs = default_D_anchors(t)
        x1, x2, x3, x4 = xs
        return (
            ConstructionSpec("D", n, k, t, T=T, quad=xs),
            ConstructionSpec("D", n, l, t, T=T, quad=(x1, x3, x2, x4)),
        )
    raise ValueError(f"unknown pair kind {pair_kind!r}")


def verify_construction(spec: ConstructionSpec, partner: ConstructionSpec, check_maximal: bool = True) -> dict:
    """Verify one pair: sizes match the closed forms, the pair is cross
    t-intersecting, both covering numbers equal t+1, and (measured, not
    required) the pair is a closure fixed point."""
    return _verify([(spec, partner)], check_maximal)[0]


def _verify(pairs: Iterable[tuple[ConstructionSpec, ConstructionSpec]], check_maximal: bool) -> list[dict]:
    """The reports of the (spec, partner) pairs, in order. A pair's families
    are built and its closed forms taken before the next pair is drawn, so
    the first invalid spec raises as it would alone. The other checks read
    the up-set closure of each distinct (family, t) once, t the pair's
    spec's, through `core._read_meets`."""
    built = []
    for spec, partner in pairs:
        F, G = spec.build(), partner.build()
        built.append((spec.t, F, G, spec, partner, len(F) == spec.closed_form(), len(G) == partner.closed_form()))
    # what each closure (family, t) answers, a family keyed by its id (the
    # construct_* caches return one object per spec): the families read
    # inside its stars, and the (n, m) tables whose stars are counted
    fams: dict[int, Family] = {}
    asks: dict[tuple[int, int], tuple[set[int], set[tuple[int, int]]]] = {}
    for t, F, G, *_ in built:
        fams[id(F)], fams[id(G)] = F, G
        of_f = asks.setdefault((id(F), t), (set(), set()))
        of_g = asks.setdefault((id(G), t), (set(), set()))
        of_g[0].add(id(F))
        if check_maximal:
            of_g[1].add((F.n, F.k))
            of_f[1].add((G.n, G.k))
    keys = list(asks)
    tau: dict[tuple[int, int], bool] = {}
    inside: dict[tuple[int, int, int], bool] = {}
    stars: dict[tuple[int, int, int, int], int] = {}

    def visit(i: int, read) -> None:
        x, t = key = keys[i]
        X = fams[x]
        # τ_t(X) = t+1 iff X's common part has fewer than t elements and some
        # (t+1)-subset of [n] meets every member in t. A t-set meets a member
        # in t iff it lies in it, and a (t+1)-set T that meets every member in
        # t lies in X's union: for e in T outside it, T - e would too. So
        # this is the τ that `covering_number` finds over the union.
        tau[key] = X.common_mask().bit_count() < t and bool(read(subsets(full_mask(X.n), t + 1).array).any())
        members_in, tables = asks[key]
        for y in members_in:
            inside[y, x, t] = bool(read(np.array(fams[y].members, dtype=np.uint64)).all())
        for n, m in tables:
            stars[x, t, n, m] = int(np.count_nonzero(read(subsets(full_mask(n), m).array)))

    _read_meets([(fams[x].members, t) for x, t in keys], visit)
    reports = []
    for t, F, G, spec, partner, size_first, size_second in built:
        f, g = id(F), id(G)
        checks = {
            "size_first": size_first,
            "size_second": size_second,
            "cross_intersecting": inside[f, g, t],
            "tau_first": tau[f, t],
            "tau_second": tau[g, t],
        }
        report = {
            "first": {"kind": spec.kind, "n": spec.n, "k": spec.k, "t": t, "size": len(F)},
            "second": {"kind": partner.kind, "n": partner.n, "k": partner.k, "t": t, "size": len(G)},
            "checks": checks,
            "pass": all(checks.values()),
        }
        if check_maximal:
            report["maximal_measured"] = (
                inside[f, g, t] and stars[g, t, F.n, F.k] == len(F) and stars[f, t, G.n, G.k] == len(G)
            )
        reports.append(report)
    return reports


def default_grid() -> list[tuple[int, int, int, int]]:
    """(t, k, l, n) with t in {1,2,3}, k, l in [t+1, t+4] and n in [l+2, 16];
    points without room for the anchors (n <= max(k, l)) are dropped."""
    return [
        (t, k, l, n)
        for t in (1, 2, 3)
        for k in range(t + 1, t + 5)
        for l in range(t + 1, t + 5)
        for n in range(max(l + 2, k + 1), 17)
    ]


def verify_grid(kinds, grid, check_maximal: bool) -> list[dict]:
    """Verify every kind at every grid point in one `_verify`; reports
    arrive sorted by (kind, point) so reruns are byte-identical."""
    pts = sorted(grid)
    # BB exists only at t = 1 and needs room for its anchor quad
    cells = [(kind, p) for kind in sorted(kinds) for p in pts if not (kind == "BB" and (p[0] != 1 or p[3] < 4))]
    reports = _verify((construction_pair(kind, n, k, l, t) for kind, (t, k, l, n) in cells), check_maximal)
    for rep, (kind, (t, k, l, n)) in zip(reports, cells):
        rep["pair_kind"] = kind
        rep["point"] = {"t": t, "k": k, "l": l, "n": n}
    return reports
