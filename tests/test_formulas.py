from fractions import Fraction

import pytest

from helpers import audit_42iv_reference
from xfam.formulas import (
    _audit_42iv,
    _glob_ok,
    audit_lemma,
    binom,
    default_grid,
    eval_a,
    eval_c1,
    eval_c2,
    eval_f,
    eval_g,
    eval_h,
    eval_tau_bound,
    leading_constant,
    leading_constant_check,
    n_threshold,
    tilde_a,
    tilde_c1c2,
    tilde_g,
    tilde_h,
)


def test_binom_convention():
    assert binom(5, 2) == 10
    assert binom(3, -1) == 0
    assert binom(3, 5) == 0
    assert binom(-2, 1) == 0
    assert binom(259, 2) == 33411


def test_closed_form_values():
    assert eval_a(2, 1, 6) == 3
    assert eval_a(3, 1, 7) == 13  # 3*C(4,1) + C(4,0)
    assert eval_h(2, 2, 1, 6) == 3  # C(5,1) - C(3,1) + 1
    assert eval_c1(3, 1, 6) == 6
    assert eval_c2(2, 3, 1, 6) == 5
    assert eval_g(1, 2, 2, 1, 6) == 1


def test_tilde_values():
    for n in (4, 7, 50, 259):
        assert tilde_a(2, 1, n) == 3
    assert tilde_g(1, 2, 2, 1, 259) == 1
    assert tilde_h(2, 2, 1, 6) == 3
    # c1 and c2 are normalized jointly
    assert tilde_c1c2(3, 4, 1, 10) == Fraction(eval_c1(4, 1, 10) * eval_c2(3, 4, 1, 10), binom(8, 2) * binom(8, 1))


def test_tilde_closed_form_identities():
    # the normalized forms collapse to first-degree rational expressions
    for t in (1, 2, 3):
        for x in range(t + 1, t + 5):
            for y in range(t + 1, t + 5):
                for n in (x + y + 3, 40, 101):
                    want = t + 2 - Fraction((t + 1) * (x - t - 1), n - t - 1)
                    assert tilde_a(x, t, n) == want
                    for m in (1, 2, 5):
                        want = m + Fraction(y * (t + 1) * (y - t + 1) * (x - t - 1), n - t - 1)
                        assert tilde_g(m, x, y, t, n) == want


def test_eval_f_modes():
    with pytest.raises(ValueError):
        eval_f(1, 2, 2, 259, 1)
    val = eval_f(1, 2, 2, 259, 1, rational=True)
    assert val == Fraction(4 * binom(1, 1) * binom(258, 1), 4)
    assert eval_f(3, 2, 3, 604, 1) == 2**0 * 4 * binom(3, 1) * binom(601, 0)
    with pytest.raises(ValueError):
        eval_f(5, 2, 3, 604, 1)


def test_tau_bound():
    assert eval_tau_bound("F", 2, 2, 2, 2, 259, 1) == 4  # 2*C(2,1)*C(257,0)
    # swapping roles mirrors the bound
    assert eval_tau_bound("F", 3, 2, 4, 5, 300, 1) == eval_tau_bound("G", 2, 3, 5, 4, 300, 1)
    with pytest.raises(ValueError):
        eval_tau_bound("F", 2, 1, 2, 2, 259, 1)
    with pytest.raises(ValueError):
        eval_tau_bound("X", 2, 2, 2, 2, 259, 1)


def test_tau_bound_sides_swap():
    # the G bound is the F bound with the sides swapped, and equals the G
    # branch as the paper states it
    for t in (1, 2):
        for k in range(t + 1, t + 4):
            for l in range(t + 1, t + 4):
                for tf in range(t + 1, l + 2):
                    for tg in range(t + 1, k + 2):
                        n = 4 * (k + l)
                        g = eval_tau_bound("G", tf, tg, k, l, n, t)
                        assert eval_tau_bound("F", tg, tf, l, k, n, t) == g
                        if tf == t + 1:
                            assert g == (k - t + 1) * binom(tg, t) * binom(n - t - 1, l - t - 1)
                        else:
                            assert g == k ** (tf - t - 2) * (k - t + 1) ** 2 * binom(tg, t) * binom(n - tf, l - tf)
    with pytest.raises(ValueError, match=r"^tau_g=1 below t\+1$"):
        eval_tau_bound("F", 2, 1, 2, 2, 259, 1)
    with pytest.raises(ValueError, match=r"^tau_f=1 below t\+1$"):
        eval_tau_bound("G", 1, 2, 2, 2, 259, 1)


def test_n_threshold():
    assert n_threshold(2, 2, 1) == 259
    assert n_threshold(3, 2, 1) == 604
    for t in (1, 2, 3):
        k = t + 1
        assert n_threshold(k, k, t) == (t + 1) ** 2 * (2 * t + 2) ** 2 * 4 + t + 2


def test_audit_examples():
    rep = audit_lemma("4.4ii", [(1, 2, 2, 259)])
    assert rep.violations == 0
    (pt,) = rep.points
    assert pt.lhs == "8" and pt.rhs == "9"

    rep = audit_lemma("4.2ii", [(1, 2, 2, 259)])
    (pt,) = rep.points
    assert pt.verdict == "holds" and pt.lhs == "9" and pt.rhs == "841/100"

    # below the global threshold a point is never scored
    rep = audit_lemma("eq9", [(1, 2, 2, 6)])
    assert all(p.verdict == "precondition-unmet" for p in rep.points)
    # at threshold the bound holds with exact rationals
    rep = audit_lemma("eq9", [(1, 2, 2, 259)])
    assert rep.violations == 0 and rep.checked == 2

    with pytest.raises(ValueError):
        audit_lemma("nope")


def test_audit_determinism():
    bases = {(k, l): n_threshold(k, l, 1) for k in (2, 3, 4) for l in (2, 3, 4)}
    grid = [(1, k, l, n) for (k, l), base in bases.items() for n in (base, base + 1, 2 * base)]
    a = audit_lemma("4.3i", grid)
    b = audit_lemma("4.3i", grid)
    assert a.points == b.points


def test_audit_side_conditions_mark_unmet():
    rep = audit_lemma("4.5ii", [(1, 3, 4, n_threshold(3, 4, 1))])
    assert rep.checked == 0 and len(rep.points) == 1
    rep = audit_lemma("4.7ii", [(3, 5, 5, n_threshold(5, 5, 3))])
    assert rep.checked == 1 and rep.violations == 0


def test_three_cover_size_identity():
    # the two displayed forms of the three-cover family size agree
    for t in (1, 2, 3):
        for k in range(t + 1, t + 5):
            for n in range(k + 4, 20):
                direct = (
                    3 * binom(n - t - 3, k - t - 1)
                    + (t + 3) * binom(n - t - 3, k - t - 2)
                    + binom(n - t - 3, k - t - 3)
                )
                via_a = eval_a(k, t, n) - (t - 1) * binom(n - t - 3, k - t - 1)
                assert direct == via_a


def test_leading_constant():
    for t in (1, 2, 3):
        for k in range(t + 2, t + 5):
            for l in range(t + 2, t + 5):
                assert leading_constant("AA", k, l, t) == (t + 2) ** 2
                assert leading_constant("HH", k, l, t) == (k - t + 1) * (l - t + 1)
                assert leading_constant("CC", k, l, t) == (t + 1) * (l - t) + 1
                assert leading_constant("BB", k, l, t) == 9
    with pytest.raises(ValueError, match="unknown pair kind 'DD'"):
        leading_constant("DD", 3, 3, 1)


def test_leading_constant_check():
    rep = leading_constant_check("AA", 3, 3, 1, [10**3, 10**4, 10**5])
    assert rep["constant"] == 9 and rep["pass"]
    rep = leading_constant_check("BB", 3, 3, 1, [10**5])
    assert rep["constant"] == 9 and rep["pass"]
    rep = leading_constant_check("CC", 4, 4, 2, [10**5])
    assert rep["constant"] == 7 and rep["pass"]
    rep = leading_constant_check("HH", 4, 4, 2, [10**5])
    assert rep["constant"] == 9 and rep["pass"]
    with pytest.raises(ValueError):
        leading_constant_check("BB", 4, 4, 2, [100])
    with pytest.raises(ValueError):
        leading_constant_check("AA", 2, 2, 1, [100])


def test_audit_42iv_integer_gaps_match_fraction_oracle():
    pts = [p for p in default_grid() if _glob_ok(*p)]
    assert len(pts) == 225
    for p in pts:
        assert _audit_42iv(*p) == audit_42iv_reference(*p), p
    # below the threshold the auditor fails at once, at m = m' = 1
    for n in (5, 6, 7):
        (pt,) = _audit_42iv(1, 2, 3, n)
        assert pt.verdict == "fails" and pt.params["m"] == pt.params["m'"] == 1
        assert [pt] == audit_42iv_reference(1, 2, 3, n)
    (pt,) = _audit_42iv(1, 2, 3, 5)
    assert (pt.lhs, pt.rhs) == ("11/3", "289/256")
    # at k = l = t+2 and n = t+1 + 48(t+1)(t+2) every gap is 0: the bound
    # holds with equality and the first (m, m') = (1, 1) is reported
    for t in (1, 2):
        n = t + 1 + 48 * (t + 1) * (t + 2)
        (pt,) = _audit_42iv(t, t + 2, t + 2, n)
        assert [pt] == audit_42iv_reference(t, t + 2, t + 2, n)
        assert pt.verdict == "holds" and pt.lhs == pt.rhs == "289/256" and pt.params["m"] == pt.params["m'"] == 1
