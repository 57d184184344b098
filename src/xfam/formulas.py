"""Exact arbitrary-precision evaluation of the closed-form sizes and bounds.

Every quantity here is an exact int or Fraction: binomials follow the
combinatorial convention C(n, r) = 0 for r < 0 or r > n (several of the size
formulas rely on it, e.g. a(t+1, t) hits C(n-t-2, -1)), and the decimal
constants appearing in the inequalities (19/10, 1/16, ...) are represented as
exact rationals. There is no floating-point fast path.

The auditors check each displayed inequality at each grid point; strict
inequalities are compared strictly. Points failing a lemma's hypotheses are
marked "precondition-unmet" instead of being scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence


def binom(n: int, r: int) -> int:
    """C(n, r) with C(n, r) = 0 whenever r < 0, r > n, or n < 0."""
    if r < 0 or n < 0 or r > n:
        return 0
    return math.comb(n, r)


def eval_g(m: int, x: int, y: int, t: int, n: int) -> int:
    return m * binom(n - t - 1, x - t - 1) + y * (t + 1) * (y - t + 1) * binom(n - t - 2, x - t - 2)


def eval_a(x: int, t: int, n: int) -> int:
    return (t + 2) * binom(n - t - 2, x - t - 1) + binom(n - t - 2, x - t - 2)


def eval_c2(x: int, y: int, t: int, n: int) -> int:
    return (t + 1) * (binom(n - t - 1, x - t) - binom(n - y - 1, x - t)) + binom(n - t - 1, x - t - 1)


def eval_c1(y: int, t: int, n: int) -> int:
    return binom(n - t - 1, y - t - 1) + t + 1


def eval_h(x: int, y: int, t: int, n: int) -> int:
    return binom(n - t, x - t) - binom(n - y - 1, x - t) + t


def tilde_a(x: int, t: int, n: int) -> Fraction:
    return Fraction(eval_a(x, t, n), _norm(x, t, n))


def tilde_h(x: int, y: int, t: int, n: int) -> Fraction:
    return Fraction(eval_h(x, y, t, n), _norm(x, t, n))


def tilde_g(m: int, x: int, y: int, t: int, n: int) -> Fraction:
    return Fraction(eval_g(m, x, y, t, n), _norm(x, t, n))


def tilde_c1c2(x: int, y: int, t: int, n: int) -> Fraction:
    """The product form: c1 and c2 are normalized jointly."""
    return Fraction(eval_c1(y, t, n) * eval_c2(x, y, t, n), _norm(y, t, n) * _norm(x, t, n))


def _norm(x: int, t: int, n: int) -> int:
    d = binom(n - t - 1, x - t - 1)
    if d == 0:
        raise ZeroDivisionError(f"normalizing binomial C({n - t - 1},{x - t - 1}) vanishes")
    return d


def eval_f(m: int, k: int, l: int, n: int, t: int, rational: bool = False) -> int | Fraction:
    """k^(m-t-2) (k-t+1)^2 C(m, t) C(n-m, l-m); integer mode rejects m < t+2."""
    if not (t <= m <= l):
        raise ValueError(f"need t <= m <= l, got m={m} t={t} l={l}")
    tail = (k - t + 1) ** 2 * binom(m, t) * binom(n - m, l - m)
    if m >= t + 2:
        return k ** (m - t - 2) * tail
    if not rational:
        raise ValueError(f"m={m} < t+2={t + 2} makes the exponent negative; use rational=True")
    return Fraction(tail, k ** (t + 2 - m))


def eval_tau_bound(side: str, tau_f: int, tau_g: int, k: int, l: int, n: int, t: int) -> int:
    """Upper bound on the size of one side of a maximal cross-t-intersecting
    pair, as a function of both covering numbers (both branches). The G
    bound is the F bound with the sides swapped."""
    if side == "F":
        tau, other, x, y, other_name = tau_f, tau_g, k, l, "tau_g"
    elif side == "G":
        tau, other, x, y, other_name = tau_g, tau_f, l, k, "tau_f"
    else:
        raise ValueError(f"side must be 'F' or 'G', got {side!r}")
    if other == t + 1:
        return (y - t + 1) * binom(tau, t) * binom(n - t - 1, x - t - 1)
    if other >= t + 2:
        return y ** (other - t - 2) * (y - t + 1) ** 2 * binom(tau, t) * binom(n - other, x - other)
    raise ValueError(f"{other_name}={other} below t+1")


def n_threshold(k: int, l: int, t: int) -> int:
    """Smallest ground-set size at which the extremal classification is proved."""
    return (t + 1) ** 2 * (k + l) ** 2 * (k - t + 1) * (l - t + 1) + k + l - t


# ---------------------------------------------------------------------------
# inequality auditors


@dataclass(frozen=True)
class AuditPoint:
    params: dict
    verdict: str  # "holds" | "fails" | "precondition-unmet"
    lhs: str = ""
    rhs: str = ""
    note: str = ""


@dataclass
class AuditReport:
    lemma: str
    points: list[AuditPoint] = field(default_factory=list)

    @property
    def violations(self) -> int:
        return sum(1 for p in self.points if p.verdict == "fails")

    @property
    def checked(self) -> int:
        return sum(1 for p in self.points if p.verdict != "precondition-unmet")


def _fmt(v: int | Fraction) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    return str(v)


def _point(params: dict, ok: bool, lhs, rhs, note: str = "") -> AuditPoint:
    return AuditPoint(params, "holds" if ok else "fails", _fmt(lhs), _fmt(rhs), note)


def _unmet(params: dict, note: str) -> AuditPoint:
    return AuditPoint(params, "precondition-unmet", note=note)


def hypotheses_hold(t: int, k: int, l: int) -> bool:
    """The paper's hypotheses on (t, k, l): t a positive integer and k, l >= t+1."""
    return t >= 1 and k >= t + 1 and l >= t + 1


def _glob_ok(t: int, k: int, l: int, n: int) -> bool:
    return hypotheses_hold(t, k, l) and n >= n_threshold(k, l, t)


def _audit_eq9(t: int, k: int, l: int, n: int) -> list[AuditPoint]:
    out = []
    for x, y in ((k, l), (l, k)):
        params = {"t": t, "k": k, "l": l, "n": n, "x": x, "y": y}
        lhs = binom(n - y - 1, x - t - 1)
        rhs = (1 - Fraction((x - t - 1) * (y - t), n - t - 1)) * binom(n - t - 1, x - t - 1)
        out.append(_point(params, Fraction(lhs) >= rhs, lhs, rhs))
    return out


def _audit_41i(t: int, k: int, l: int, n: int) -> list[AuditPoint]:
    params = {"t": t, "k": k, "l": l, "n": n}
    if n < 2 * (k - t + 1) * (l - t + 1) + t + 1:
        return [_unmet(params, "n below the monotonicity hypothesis")]
    worst = None
    for s in range(t, k):
        lo = max(0, s + t - k)
        for w in range(lo, t - 1):
            a = binom(l - w, t - w) * binom(n - s - t + w, k - s - t + w)
            b = binom(l - w - 1, t - w - 1) * binom(n - s - t + w + 1, k - s - t + w + 1)
            if a > b:
                return [_point({**params, "s": s, "w": w}, False, a, b, "monotonicity breaks")]
            worst = (a, b)
    if worst is None:
        return [_point(params, True, 0, 0, "vacuous: no consecutive w pairs in range")]
    return [_point(params, True, worst[0], worst[1])]


def _audit_41ii(t: int, k: int, l: int, n: int) -> list[AuditPoint]:
    params = {"t": t, "k": k, "l": l, "n": n}
    if n < (t + 1) ** 2 * (k - t + 1) * (l - t + 1) + t + 1:
        return [_unmet(params, "n below the monotonicity hypothesis")]
    out = []
    prev = None
    for m in range(t, l + 1):
        cur = eval_f(m, k, l, n, t, rational=True)
        if prev is not None and prev[1] < cur:
            out.append(_point({**params, "m": m}, False, prev[1], cur, "f increases"))
            return out
        prev = (m, cur)
    cap = (t + 1) * (k - t + 1) * binom(n - t - 1, l - t - 1)
    for m in range(t + 2, l + 1):
        fv = eval_f(m, k, l, n, t)
        if not fv < cap:
            out.append(_point({**params, "m": m}, False, fv, cap, "cap violated"))
            return out
    return [_point(params, True, _fmt(prev[1]) if prev else "0", cap)]


def _audit_42i(t: int, k: int, l: int, n: int) -> list[AuditPoint]:
    params = {"t": t, "k": k, "l": l, "n": n}
    lhs = tilde_h(k, l, t, n) * tilde_h(l, k, t, n)
    rhs = (k - t + 1) * (l - t + 1) - Fraction(1, t + 1)
    return [_point(params, lhs > rhs, lhs, rhs)]


def _audit_42ii(t: int, k: int, l: int, n: int) -> list[AuditPoint]:
    params = {"t": t, "k": k, "l": l, "n": n}
    lhs = tilde_a(k, t, n) * tilde_a(l, t, n)
    rhs = (t + Fraction(19, 10)) ** 2
    return [_point(params, lhs > rhs, lhs, rhs)]


def _audit_42iii(t: int, k: int, l: int, n: int) -> list[AuditPoint]:
    params = {"t": t, "k": k, "l": l, "n": n}
    if l < t + 2:
        return [_unmet(params, "needs l >= t+2")]
    mid = tilde_c1c2(k, l, t, n) - (t + 1) * (l - t)
    hi = 1 + Fraction(1, (k + l) ** 2 * (k - t + 1))
    lo = 1 - Fraction(l - t, (t + 1) * (k + l) ** 2)
    return [_point(params, lo < mid < hi, mid, f"({_fmt(lo)}, {_fmt(hi)})")]


def _audit_42iv(t: int, k: int, l: int, n: int) -> list[AuditPoint]:
    """g~(m, k) g~(m', l) against (m + 1/16)(m' + 1/16) for m, m' up to the cap.

    Both sides share the positive denominator 256 D, D = _norm(k) _norm(l),
    so each comparison, and the order of the gaps, is decided on the integer
    256 D (rhs - lhs); Fractions are built for the reported point only."""
    params = {"t": t, "k": k, "l": l, "n": n}
    cap = max(2 * (l - t + 1), (t + 1) * (l - t) + 1, l + 1, t + 2, 4)
    den = _norm(k, t, n) * _norm(l, t, n)
    ms = range(1, cap + 1)
    gs = [eval_g(m, k, l, t, n) for m in ms]
    gps = [eval_g(m, l, k, t, n) for m in ms]
    worst_gap, worst = None, None
    for m, gm in zip(ms, gs):
        row = den * (16 * m + 1)
        for mp, gmp in zip(ms, gps):
            gap = row * (16 * mp + 1) - 256 * gm * gmp
            if gap < 0:
                return [_point({**params, "m": m, "m'": mp}, False, *_42iv_sides(gm * gmp, den, m, mp))]
            if worst_gap is None or gap < worst_gap:
                worst_gap, worst = gap, (gm * gmp, m, mp)
    assert worst is not None
    product, m, mp = worst
    return [_point({**params, "m": m, "m'": mp, "m_max": cap}, True, *_42iv_sides(product, den, m, mp))]


def _42iv_sides(product: int, den: int, m: int, mp: int) -> tuple[Fraction, Fraction]:
    return Fraction(product, den), (m + Fraction(1, 16)) * (mp + Fraction(1, 16))


def _audit_product(lhs_fn: Callable[[int, int, int, int], int], rhs_fn: Callable[[int, int, int, int], int], pre: Callable[[int, int, int], str | None]):
    def run(t: int, k: int, l: int, n: int) -> list[AuditPoint]:
        params = {"t": t, "k": k, "l": l, "n": n}
        msg = pre(t, k, l)
        if msg:
            return [_unmet(params, msg)]
        lhs, rhs = lhs_fn(t, k, l, n), rhs_fn(t, k, l, n)
        return [_point(params, lhs < rhs, lhs, rhs)]

    return run


def _hh(t, k, l, n):
    return eval_h(k, l, t, n) * eval_h(l, k, t, n)


def _aa(t, k, l, n):
    return eval_a(k, t, n) * eval_a(l, t, n)


def _cc(t, k, l, n):
    return eval_c1(l, t, n) * eval_c2(k, l, t, n)


def _lh(t, k, l, n):
    return (l + 1) * binom(n - t - 1, k - t - 1) * eval_h(l, t + 1, t, n)


def _audit_31(t: int, k: int, l: int, n: int) -> list[AuditPoint]:
    """Product of the two covering-number bounds stays below a(k,t)a(l,t) for
    every (tau_F, tau_G) != (t+1, t+1) in range."""
    params = {"t": t, "k": k, "l": l, "n": n}
    rhs = _aa(t, k, l, n)
    cases = [
        (tf, tg)
        for tf in range(t + 1, l + 1)
        for tg in range(t + 1, k + 1)
        if (tf, tg) != (t + 1, t + 1)
    ]
    if not cases:
        return [_unmet(params, "k = l = t+1 leaves no covering-number case")]
    worst = None
    for tf, tg in cases:
        lhs = eval_tau_bound("F", tf, tg, k, l, n, t) * eval_tau_bound("G", tf, tg, k, l, n, t)
        if not lhs < rhs:
            return [_point({**params, "tau_f": tf, "tau_g": tg}, False, lhs, rhs)]
        if worst is None or lhs > worst[0]:
            worst = (lhs, tf, tg)
    assert worst is not None
    return [_point({**params, "tau_f": worst[1], "tau_g": worst[2]}, True, worst[0], rhs)]


_AUDITORS: dict[str, Callable[[int, int, int, int], list[AuditPoint]]] = {
    "eq9": _audit_eq9,
    "4.1i": _audit_41i,
    "4.1ii": _audit_41ii,
    "4.2i": _audit_42i,
    "4.2ii": _audit_42ii,
    "4.2iii": _audit_42iii,
    "4.2iv": _audit_42iv,
    "4.3i": _audit_product(
        lambda t, k, l, n: eval_g(2 * (l - t + 1), k, l, t, n) * eval_g(1, l, k, t, n),
        _hh,
        lambda t, k, l: None if l >= t + 2 else "needs l >= t+2",
    ),
    "4.3ii": _audit_product(
        lambda t, k, l, n: eval_g(l - t, k, l, t, n) * eval_g(k - t + 1, l, k, t, n),
        _hh,
        lambda t, k, l: None if l >= t + 2 else "needs l >= t+2",
    ),
    "4.3iii": _audit_product(
        lambda t, k, l, n: eval_g(l, k, l, t, n) * eval_g(2, l, k, t, n),
        _hh,
        lambda t, k, l: None if (t == 1 and l >= t + 2) else "needs t = 1 and l >= 3",
    ),
    "4.4i": _audit_product(
        lambda t, k, l, n: eval_g(t + 2, k, l, t, n) * eval_g(t + 1, l, k, t, n),
        _aa,
        lambda t, k, l: None,
    ),
    "4.4ii": _audit_product(
        lambda t, k, l, n: eval_g(4, k, l, t, n) * eval_g(2, l, k, t, n),
        _aa,
        lambda t, k, l: None,
    ),
    "4.4iii": _audit_product(
        lambda t, k, l, n: eval_g(l, k, l, t, n) * eval_g(2, l, k, t, n),
        _aa,
        lambda t, k, l: None if l <= 2 * t + 2 else "needs l <= 2t+2",
    ),
    "4.5i": _audit_product(
        lambda t, k, l, n: eval_g((t + 1) * (l - t), k, l, t, n) * eval_g(1, l, k, t, n),
        _cc,
        lambda t, k, l: None if l >= t + 2 else "needs l >= t+2",
    ),
    "4.5ii": _audit_product(
        lambda t, k, l, n: eval_g(l, k, l, t, n) * eval_g(2, l, k, t, n),
        _cc,
        lambda t, k, l: None if (t >= 2 and l >= 2 * t + 3) else "needs t >= 2 and l >= 2t+3",
    ),
    "4.6i": _audit_product(
        _lh,
        _hh,
        lambda t, k, l: None if (k >= t + 2 and l >= max(t + 2, 4 * t - 1)) else "needs k >= t+2 and l >= 4t-1",
    ),
    "4.6ii": _audit_product(
        _lh,
        _aa,
        lambda t, k, l: None if (t >= 2 and t + 2 <= l <= 4 * t - 2) else "needs t >= 2 and t+2 <= l <= 4t-2",
    ),
    # the c1*c2 comparisons degenerate at k = t+1 (both sides coincide or the
    # relevant construction collapses), so uniformity at least t+2 is part of
    # the hypotheses here
    "4.7i": _audit_product(
        lambda t, k, l, n: eval_c1(k, t, n) * eval_c2(k, k, t, n),
        lambda t, k, l, n: eval_h(k, k, t, n) ** 2,
        lambda t, k, l: None if (k == l and k >= max(2 * t, t + 2)) else "needs k = l >= max(2t, t+2)",
    ),
    "4.7ii": _audit_product(
        lambda t, k, l, n: eval_c1(k, t, n) * eval_c2(k, k, t, n),
        lambda t, k, l, n: eval_a(k, t, n) ** 2,
        lambda t, k, l: None if (k == l and t + 2 <= k <= 2 * t - 1) else "needs k = l and t+2 <= k <= 2t-1",
    ),
    "4.7iii": _audit_product(
        lambda t, k, l, n: eval_c1(k, t, n) * eval_c2(l, k, t, n),
        _cc,
        lambda t, k, l: None if (l >= k + 1 and k >= t + 2) else "needs l >= k+1 and k >= t+2",
    ),
    "3.1": _audit_31,
}

ALL_LEMMAS = tuple(_AUDITORS)


def default_grid() -> list[tuple[int, int, int, int]]:
    """t in {1,2,3}, k,l in [t+1, t+5], n in {N, N+1, 2N} at the threshold N
    for the point."""
    grid = []
    for t in (1, 2, 3):
        for k in range(t + 1, t + 6):
            for l in range(t + 1, t + 6):
                base = n_threshold(k, l, t)
                for n in (base, base + 1, 2 * base):
                    grid.append((t, k, l, n))
    return grid


def audit_lemma(lemma: str, grid: Sequence[tuple[int, int, int, int]] | None = None) -> AuditReport:
    """Run one auditor over a grid of (t, k, l, n) points."""
    if lemma not in _AUDITORS:
        raise ValueError(f"unknown lemma id {lemma!r}; known: {', '.join(ALL_LEMMAS)}")
    pts = list(grid) if grid is not None else default_grid()
    report = AuditReport(lemma)
    fn = _AUDITORS[lemma]
    for t, k, l, n in sorted(pts):
        params = {"t": t, "k": k, "l": l, "n": n}
        if not _glob_ok(t, k, l, n):
            report.points.append(_unmet(params, "below the global n threshold" if t >= 1 else "needs t >= 1"))
            continue
        report.points.extend(fn(t, k, l, n))
    return report


# ---------------------------------------------------------------------------
# leading-term convergence

# each extremal pair of Theorem 1.1: its size product, called (t, k, l, n),
# and the leading constant its normalized product tends to, called (t, k, l);
# BB has the sizes of AA at t = 1
PAIR_FORMULAS: dict[str, tuple[Callable[[int, int, int, int], int], Callable[[int, int, int], int]]] = {
    "AA": (_aa, lambda t, k, l: (t + 2) ** 2),
    "BB": (lambda t, k, l, n: _aa(1, k, l, n), lambda t, k, l: 9),
    "CC": (_cc, lambda t, k, l: (t + 1) * (l - t) + 1),
    "HH": (_hh, lambda t, k, l: (k - t + 1) * (l - t + 1)),
}


def leading_constant(pair_kind: str, k: int, l: int, t: int) -> int:
    if pair_kind not in PAIR_FORMULAS:
        raise ValueError(f"unknown pair kind {pair_kind!r}")
    return PAIR_FORMULAS[pair_kind][1](t, k, l)


def leading_constant_check(
    pair_kind: str,
    k: int,
    l: int,
    t: int,
    n_sequence: Sequence[int],
    tol: Fraction = Fraction(1, 100),
) -> dict:
    """Normalized size product along n_sequence, compared with the limit
    constant; passes when the relative gap at the largest n is within tol."""
    c = leading_constant(pair_kind, k, l, t)
    if t < 1:
        raise ValueError(f"need t >= 1, got t={t}")
    if pair_kind == "BB" and t != 1:
        raise ValueError("the three-interval pair only exists at t = 1")
    if min(k, l) < t + 2:
        raise ValueError("need k, l >= t+2 for a meaningful leading exponent")
    if not n_sequence or min(n_sequence) < 1:
        raise ValueError("need at least one ground-set size, each n >= 1")
    exponent = k + l - 2 * t - 2
    scale = math.factorial(k - t - 1) * math.factorial(l - t - 1)
    rows = []
    for n in sorted(n_sequence):
        product = PAIR_FORMULAS[pair_kind][0](t, k, l, n)
        ratio = Fraction(product * scale, n**exponent)
        rows.append({"n": n, "product": str(product), "ratio": ratio})
    final_gap = abs(rows[-1]["ratio"] - c) / c
    return {
        "pair": pair_kind,
        "k": k,
        "l": l,
        "t": t,
        "constant": c,
        "rows": rows,
        "relative_gap": final_gap,
        "pass": final_gap <= tol,
    }
