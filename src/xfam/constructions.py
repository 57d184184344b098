"""Generators for the explicit extremal families and their self-verification.

Each shape has one member builder that takes its anchors as masks and
selects, from the shared k-subset table in `core`, the k-sets meeting each
of its anchor sets in at least t elements; the proof sits beside each.
`classify` reads the same anchor sets off the minimum covers. The
generators here place the anchors at the low indices of [n]; closed-form
sizes live in `formulas` and the test suite cross-checks both paths against
inclusion-exclusion counts.

`verify_construction` caches each built family's covers across pairs, and
for each ordered (family, partner) two facts about star(partner, |family|):
whether the family lies inside it and whether it equals it. Since F's members
are k-subsets of [n], F and G are cross t-intersecting iff F lies inside
star(G, k), and the pair is a star fixed point iff that star equals F and
star(F, l) equals G; star(F, l) is computed only when the first star equals
F. An AA or HH pair at (t, l, k, n) holds the two sides of the pair at
(t, k, l, n) in swapped order, so it reads both facts from the cache.

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

from .core import (
    CoverStructure,
    Family,
    covering_number,
    elements_of,
    full_mask,
    mask_of,
    select,
    subsets,
    validate_params,
)
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
    return Family(n, k, _a_members(n, k, t, full_mask(t + 2)))


@lru_cache(maxsize=4096)
def construct_B(n: int, k: int, quad: tuple[int, int, int, int]) -> Family:
    """Union of the intervals anchored at {a1,a2}, {a2,a3}, {a3,a4}."""
    if len(set(quad)) != 4 or not all(1 <= a <= n for a in quad):
        raise ValueError(f"quad must be four distinct elements of [n], got {quad}")
    if k < 2:
        raise ValueError("need k >= 2")
    return Family(n, k, _b_members(n, k, quad))


@lru_cache(maxsize=4096)
def construct_C1(n: int, l: int, t: int) -> Family:
    """The t+1 sets [l+1] minus one of [t+1], plus all l-sets containing [t+1]."""
    if not (t + 1 <= l) or n < l + 1:
        raise ValueError(f"need l >= t+1 and n >= l+1, got n={n} l={l} t={t}")
    return Family(n, l, _c1_members(n, l, full_mask(t + 1), full_mask(l + 1)))


@lru_cache(maxsize=4096)
def construct_C2(n: int, k: int, t: int, l: int) -> Family:
    """k-sets meeting [t+1] in exactly t with a hit in [t+2, l+1], plus the
    [t+1]-anchored interval."""
    if not (t + 1 <= k <= n) or not (t + 1 <= l) or n < l + 1:
        raise ValueError(f"need k, l >= t+1 and n >= l+1, got n={n} k={k} l={l} t={t}")
    return Family(n, k, _c2_members(n, k, t, full_mask(t + 1), full_mask(l + 1)))


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
    return Family(n, k, _h_members(n, k, full_mask(t), xm, ym))


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
    return Family(n, k, select(subsets(full_mask(n), k), covers, t))


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
            ConstructionSpec("H", n, k, t, l=l, X=X, Y=Y),
            ConstructionSpec("H", n, l, t, l=k, X=Y, Y=X),
        )
    if pair_kind == "DD":
        T, xs = default_D_anchors(t)
        x1, x2, x3, x4 = xs
        return (
            ConstructionSpec("D", n, k, t, T=T, quad=xs),
            ConstructionSpec("D", n, l, t, T=T, quad=(x1, x3, x2, x4)),
        )
    raise ValueError(f"unknown pair kind {pair_kind!r}")


@lru_cache(maxsize=4096)
def _covers(family: Family, t: int) -> CoverStructure:
    """The covers of a built family, computed once for every pair it is in."""
    return covering_number(family, t)


@lru_cache(maxsize=4096)
def _in_star(X: Family, Y: Family, t: int) -> tuple[bool, bool]:
    """Whether X lies inside star(Y, |X|), and whether it equals it. The
    cache keeps these two booleans, not the star."""
    star = select(subsets(full_mask(X.n), X.k), Y.members, t)
    fixed = star == X.members
    return fixed or set(star).issuperset(X.members), fixed


def verify_construction(spec: ConstructionSpec, partner: ConstructionSpec, check_maximal: bool = True) -> dict:
    """Verify one pair: sizes match the closed forms, the pair is cross
    t-intersecting, both covering numbers equal t+1, and (measured, not
    required) the pair is a closure fixed point."""
    t = spec.t
    F, G = spec.build(), partner.build()
    inside, fixed = _in_star(F, G, t)
    checks = {
        "size_first": len(F) == spec.closed_form(),
        "size_second": len(G) == partner.closed_form(),
        "cross_intersecting": inside,
        "tau_first": _covers(F, t).tau == t + 1,
        "tau_second": _covers(G, t).tau == t + 1,
    }
    report = {
        "first": {"kind": spec.kind, "n": spec.n, "k": spec.k, "t": t, "size": len(F)},
        "second": {"kind": partner.kind, "n": partner.n, "k": partner.k, "t": t, "size": len(G)},
        "checks": checks,
        "pass": all(checks.values()),
    }
    if check_maximal:
        # star(F, l) is computed only when star(G, k) is F itself
        report["maximal_measured"] = fixed and _in_star(G, F, t)[1]
    return report


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
    """Run verify_construction for every kind at every grid point; reports
    arrive sorted by (kind, point) so reruns are byte-identical."""
    pts = sorted(grid)
    out = []
    for kind in sorted(kinds):
        for t, k, l, n in pts:
            # BB exists only at t = 1 and needs room for its anchor quad
            if kind == "BB" and (t != 1 or n < 4):
                continue
            spec, partner = construction_pair(kind, n, k, l, t)
            rep = verify_construction(spec, partner, check_maximal=check_maximal)
            rep["pair_kind"] = kind
            rep["point"] = {"t": t, "k": k, "l": l, "n": n}
            out.append(rep)
    return out
