"""Unified command-line front end.

Identical invocations produce byte-identical reports; values that can exceed
64 bits are serialized as decimal strings. Exit status is 0 only when every
requested check passes (audit violations, unmatched classifications, or
failed construction checks exit nonzero), 1 on a failed check, and 2 on usage
errors such as unreadable files or inputs over the enumeration budget.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import re
import sys
from fractions import Fraction
from itertools import chain
from typing import Container

from . import (
    ConstructionSpec,
    classify_fact_2_1,
    classify_pair_theorem_1_1,
    classify_theorem_1_2,
    core,
    count_theorem_1_2,
    enumerate_maximal_t_intersecting,
    extremal_product_search,
    family_to_text,
    leading_constant_check,
    n_threshold,
    read_family,
    verify_grid,
)
from .constructions import PAIR_KINDS, default_D_anchors, default_grid as construction_grid
from .formulas import (
    ALL_LEMMAS,
    audit_lemma,
    default_grid as audit_grid,
    eval_a,
    eval_c1,
    eval_c2,
    eval_f,
    eval_g,
    eval_h,
    eval_tau_bound,
    tilde_a,
    tilde_c1c2,
    tilde_g,
    tilde_h,
)


_quote = json.encoder.encode_basestring_ascii  # the escaper json.dumps uses
# pieces of report text joined into one string at a time: a list of many
# small strings takes several times the bytes of the text they hold
_DUMP_PIECES = 2048


def _dumps(value) -> str:
    """The text of json.dumps(value, indent=2, sort_keys=True), with each
    Fraction written as "p/q" and each int of 2^53 or more in size as a
    decimal string. The pieces are joined every _DUMP_PIECES and the chunks
    once at the end, so the text is held about twice at the peak. Dict keys
    must be strings; a float, a set or any other type raises TypeError."""
    chunks: list[str] = []
    parts: list[str] = []
    _dump(value, "", parts, chunks)
    chunks.append("".join(parts))
    return "".join(chunks)


def _dump(v, indent: str, parts: list[str], chunks: list[str]) -> None:
    """Append the pieces of `v`'s text to `parts`, its nested lines indented
    past `indent`; after a dict or list, a full `parts` moves into `chunks`
    as one string."""
    append = parts.append
    if isinstance(v, str):
        append(_quote(v))
    elif v is None or v is True or v is False:
        append("null" if v is None else "true" if v else "false")
    elif isinstance(v, int):
        append(f'"{v}"' if abs(v) >= 2**53 else str(v))
    elif isinstance(v, dict):
        if not v:
            append("{}")
            return
        inner = indent + "  "
        sep, rest = "{\n" + inner, ",\n" + inner
        for key in sorted(v):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            append(f"{sep}{_quote(key)}: ")
            _dump(v[key], inner, parts, chunks)
            sep = rest
        append("\n" + indent + "}")
        _flush(parts, chunks)
    elif isinstance(v, (list, tuple)):
        if not v:
            append("[]")
            return
        inner = indent + "  "
        sep, rest = "[\n" + inner, ",\n" + inner
        for item in v:
            append(sep)
            _dump(item, inner, parts, chunks)
            sep = rest
        append("\n" + indent + "]")
        _flush(parts, chunks)
    elif isinstance(v, Fraction):  # last: an ABC check costs more than the others
        append(f'"{v.numerator}/{v.denominator}"')
    else:
        raise TypeError(f"a report cannot hold {type(v).__name__} {v!r}")


def _flush(parts: list[str], chunks: list[str]) -> None:
    if len(parts) >= _DUMP_PIECES:
        chunks.append("".join(parts))
        parts.clear()


def _write(text: str, out: str | None) -> None:
    """Write to the --out file, or to stdout without one."""
    if out:
        try:
            with io.open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # an unwritable --out is a usage error
            raise ValueError(f"cannot write {out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out: str | None) -> None:
    _write(_dumps(payload) + "\n", out)


def _report(command: str, params: dict, results, verdict: bool) -> dict:
    return {
        "command": command,
        "params": params,
        "results": results,
        "verdict": "pass" if verdict else "fail",
    }


def _parse_ints(text: str) -> tuple[int, ...]:
    """The integers of a list split at commas and spaces; ASCII digits only,
    as in grid bounds."""
    terms = text.replace(",", " ").split()
    if not all(term.isascii() and term.isdigit() for term in terms):
        raise ValueError(f"bad integer list {text!r}: give ASCII digits split by commas or spaces")
    return tuple(int(term) for term in terms)


def _grid_value(expr: str, env: dict[str, int]) -> int:
    """Value of a grid bound: integers and names from `env` joined by + or -."""
    parts = re.split(r"([+-])", "+" + expr)
    total = 0
    for sign, term in zip(parts[1::2], parts[2::2]):
        term = term.strip()
        if not (term.isascii() and term.isdigit() or term in env):
            raise ValueError(f"bad grid bound {expr!r}: join integers and names ({', '.join(env) or 'none here'}) by + or -")
        total += (env[term] if term in env else int(term)) * (1 if sign == "+" else -1)
    return total


def _parse_grid(text: str | None, default):
    """Grid spec 't=1,2;k=2..4;l=2..5;n=8..12' -> sorted (t,k,l,n) points.
    A bound is integers and names joined by + or -; k may name t, l may name
    t and k, and n may name t, k and l (e.g. k=t+1..t+4, n=l+2..12). The
    points are counted before each range of n is listed, and a grid of more
    than `core.BUDGET` of them is refused."""
    if text is None or text == "default":
        return default()

    def parse_range(expr: str, env: dict[str, int]) -> list[range]:
        ranges = []
        for part in expr.split(","):
            lo, dots, hi = part.partition("..")
            start = _grid_value(lo, env)
            ranges.append(range(start, (_grid_value(hi, env) if dots else start) + 1))
        return ranges

    dims: dict[str, str] = {}
    for chunk in text.split(";"):
        name, _, expr = chunk.partition("=")
        dims[name.strip()] = expr.strip()
    missing = [name for name in "tkln" if name not in dims]
    if missing:
        raise ValueError(f"grid spec {text!r} lacks {', '.join(missing)}")
    pts: list[tuple[int, int, int, int]] = []
    for t in chain(*parse_range(dims["t"], {})):
        for k in chain(*parse_range(dims["k"], {"t": t})):
            for l in chain(*parse_range(dims["l"], {"t": t, "k": k})):
                ns = parse_range(dims["n"], {"t": t, "k": k, "l": l})
                # the length of a range, as an int however large its bounds
                count = len(pts) + sum(max(0, r.stop - r.start) for r in ns)
                if count > core.BUDGET:
                    raise ValueError(f"grid spec {text!r} has {count:,} points or more, over the budget of {core.BUDGET:,}")
                pts += [(t, k, l, n) for n in chain(*ns)]
    if not pts:
        raise ValueError(f"grid spec {text!r} has no points")
    return sorted(set(pts))


def _family_json(fam) -> dict:
    return {"n": fam.n, "k": fam.k, "members": [list(s) for s in fam.to_sets()]}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_construct(args) -> int:
    T, quad = default_D_anchors(args.t) if args.kind == "D" else (None, None)
    spec = ConstructionSpec(
        kind=args.kind,
        n=args.n,
        k=args.k,
        t=args.t,
        l=args.l,
        quad=_parse_ints(args.quad) if args.quad else quad,
        X=_parse_ints(args.x) if args.x else None,
        Y=_parse_ints(args.y) if args.y else None,
        T=_parse_ints(args.anchor) if args.anchor else T,
    )
    _write(family_to_text(spec.build()), args.out)
    return 0


def _cmd_verify_constructions(args) -> int:
    pts = _parse_grid(args.grid, construction_grid)
    kinds = sorted(set(args.kinds.split(","))) if args.kinds else list(PAIR_KINDS)
    reports = verify_grid(kinds, pts, check_maximal=args.maximal)
    if not reports:
        raise ValueError(f"no pair of kinds {','.join(kinds)} exists at any grid point")
    ok = all(rep["pass"] for rep in reports)
    _emit(_report("verify-constructions", {"grid": args.grid or "default", "kinds": kinds}, reports, ok), args.out)
    return 0 if ok else 1


def _cmd_enumerate(args) -> int:
    fams = enumerate_maximal_t_intersecting(args.n, args.k, args.t)
    if args.json:
        payload = _report(
            "enumerate-maximal",
            {"n": args.n, "k": args.k, "t": args.t},
            {"count": len(fams), "families": [_family_json(f) for f in fams]},
            True,
        )
        _emit(payload, args.out)
        return 0
    _write("\n".join(family_to_text(f) for f in fams), args.out)
    sys.stderr.write(f"{len(fams)} maximal families\n")
    return 0


def _cmd_search(args) -> int:
    res = extremal_product_search(args.n, args.k1, args.k2, args.t, args.min_tau)
    payload = _report(
        "search",
        {"n": args.n, "k1": args.k1, "k2": args.k2, "t": args.t, "min_tau": args.min_tau},
        {
            "best_product": str(res.best_product),
            "pairs_examined": res.pairs_examined,
            "at_proved_threshold": res.at_proved_threshold,
            "threshold": str(n_threshold(args.k1, args.k2, args.t)),
            "witnesses": [
                {"first": _family_json(f), "second": _family_json(g)} for f, g in res.witnesses
            ],
        },
        True,
    )
    _emit(payload, args.out)
    return 0


def _cmd_classify(args) -> int:
    if args.theorem == "1.1" and not args.infile2:
        raise ValueError("--theorem 1.1 needs --in2 with the partner family")
    try:
        fam = read_family(args.infile)
        partner = read_family(args.infile2) if args.theorem == "1.1" else None
    except OSError as exc:
        raise ValueError(f"cannot read family file: {exc}") from exc
    if args.theorem == "1.2":
        match = classify_theorem_1_2(fam, args.t)
    elif args.theorem == "fact2.1":
        match = classify_fact_2_1(fam, args.t)
    else:
        match = classify_pair_theorem_1_1(fam, partner, args.t)
    payload = _report(
        "classify",
        {"in": args.infile, "theorem": args.theorem, "t": args.t},
        {
            "template": match.template,
            "witnesses": match.witnesses,
            "all_matches": [{"template": m, "witnesses": w} for m, w in match.all_matches],
        },
        match.matched,
    )
    _emit(payload, args.out)
    return 0 if match.matched else 1


def _cmd_classify_all(args) -> int:
    total, found, counts = count_theorem_1_2(args.n, args.k, args.t)
    payload = _report(
        "classify-all",
        {"n": args.n, "k": args.k, "t": args.t},
        {
            "maximal_families": total,
            "with_min_cover_t_plus_1": found,
            "matches_per_template": dict(sorted(counts.items())),
            # Empty by proof: every family with covering number t+1 has a
            # (t+1)-cover, and every (t+1)-cover is a T1.2-iii anchor. Whether
            # shape (iii) is meant that broadly in the paper is left open.
            "unmatched": [],
        },
        True,
    )
    _emit(payload, args.out)
    return 0


def _cmd_audit(args) -> int:
    lemmas = list(ALL_LEMMAS) if args.lemma == "all" else [args.lemma]
    grid = _parse_grid(args.grid, audit_grid)
    reports = [audit_lemma(lemma, grid) for lemma in lemmas]
    ok = all(rep.violations == 0 for rep in reports)
    if not any(rep.checked for rep in reports):  # a vacuous audit is no pass
        raise ValueError(f"audit checks no points: no grid point meets the hypotheses of --lemma {args.lemma}")
    if args.format == "csv":
        rows = [["lemma", "verdict", "lhs", "rhs", "note", "params"]]
        for rep in reports:
            for p in rep.points:
                rows.append([rep.lemma, p.verdict, p.lhs, p.rhs, p.note, json.dumps(p.params, sort_keys=True)])
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        _write(buf.getvalue(), args.out)
        return 0 if ok else 1
    payload = _report(
        "audit",
        {"lemma": args.lemma, "grid": args.grid or "default"},
        [
            {
                "lemma": rep.lemma,
                "checked": rep.checked,
                "violations": rep.violations,
                "points": [
                    {"params": p.params, "verdict": p.verdict, "lhs": p.lhs, "rhs": p.rhs, "note": p.note}
                    for p in rep.points
                ],
            }
            for rep in reports
        ],
        ok,
    )
    _emit(payload, args.out)
    return 0 if ok else 1


_FORMULAS = {
    "g": eval_g,
    "a": eval_a,
    "c1": eval_c1,
    "c2": eval_c2,
    "h": eval_h,
    "f": eval_f,
    "tilde-a": tilde_a,
    "tilde-h": tilde_h,
    "tilde-g": tilde_g,
    "tilde-c1c2": tilde_c1c2,
    "tau-bound": eval_tau_bound,
}


def _arguments(fn) -> list[str]:
    """The names of `fn`'s parameters without a default, in order: the
    arguments `eval` needs."""
    return [p.name for p in inspect.signature(fn).parameters.values() if p.default is p.empty]


def _cmd_evaluate(args) -> int:
    kv = {}
    for item in args.args:
        name, _, val = item.partition("=")
        try:
            kv[name] = int(val)
        except ValueError:
            raise ValueError(f"bad argument {item!r}: need name=integer") from None
    if args.formula not in _FORMULAS:
        raise ValueError(f"unknown formula {args.formula!r}")
    if args.formula == "tau-bound":
        side = kv.get("side", 0)
        if side not in (0, 1):
            raise ValueError(f"side must be 0 (F) or 1 (G), got {side}")
        kv["side"] = "FG"[side]
    fn = _FORMULAS[args.formula]
    names = _arguments(fn)
    missing = [x for x in names if x not in kv]
    if missing:
        raise ValueError(f"missing arguments: {', '.join(missing)}")
    value = fn(*(kv[x] for x in names))
    if isinstance(value, Fraction):
        sys.stdout.write(f"{value.numerator}/{value.denominator}\n")
    else:
        sys.stdout.write(f"{value}\n")
    return 0


def _cmd_threshold(args) -> int:
    if not (args.t >= 1 and args.k >= args.t + 1 and args.l >= args.t + 1):  # the rule of formulas._glob_ok
        raise ValueError(f"the threshold needs t >= 1 and k, l >= t+1, got k={args.k} l={args.l} t={args.t}")
    sys.stdout.write(f"{n_threshold(args.k, args.l, args.t)}\n")
    return 0


def _cmd_leading_term(args) -> int:
    n_seq = _parse_ints(args.n_seq)
    tol = Fraction(args.tol).limit_denominator(10**9)
    rep = leading_constant_check(args.pair, args.k, args.l, args.t, n_seq, tol=tol)
    payload = _report(
        "leading-term",
        {"pair": args.pair, "k": args.k, "l": args.l, "t": args.t, "n_seq": list(n_seq)},
        {
            "constant": rep["constant"],
            "relative_gap": rep["relative_gap"],
            "rows": [{"n": r["n"], "product": r["product"], "ratio": r["ratio"]} for r in rep["rows"]],
        },
        rep["pass"],
    )
    _emit(payload, args.out)
    return 0 if rep["pass"] else 1


def build_parser(only: Container[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every command. With `only`, the commands outside it
    keep their names and help, so the top-level usage, help and errors read
    the same, but get no arguments: `main` builds the arguments of the
    commands its argv names, which argparse matches whole."""
    parser = argparse.ArgumentParser(prog="xfam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, fn) -> argparse.ArgumentParser | None:
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        return p if only is None or name in only else None

    if p := command("construct", "emit one construction in the family text format", _cmd_construct):
        p.add_argument("--kind", required=True, choices=["A", "B", "C1", "C2", "H", "D"])
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--l", type=int)
        p.add_argument("--x", help="elements of X, e.g. '4 5'")
        p.add_argument("--y", help="elements of Y")
        p.add_argument("--quad", help="four anchor elements (B and D)")
        p.add_argument("--anchor", help="base anchor T for D (defaults to 1..t-1)")
        p.add_argument("--out")

    if p := command("verify-constructions", "size/pairing/covering checks over a grid", _cmd_verify_constructions):
        p.add_argument("--grid", help="e.g. 't=1,2;k=t+1..t+3;l=t+1..t+3;n=l+2..12' (default: the full verification grid)")
        p.add_argument("--kinds", help="comma list from AA,BB,CC,DD,HH")
        p.add_argument("--maximal", action="store_true", help="also measure closure fixed-point status")
        p.add_argument("--out")

    if p := command("enumerate-maximal", "all maximal t-intersecting families", _cmd_enumerate):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--json", action="store_true")
        p.add_argument("--out")

    if p := command("search", "exhaustive maximal-pair product search", _cmd_search):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k1", type=int, required=True)
        p.add_argument("--k2", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--min-tau", type=int, required=True)
        p.add_argument("--out")

    if p := command("classify", "match one family (or pair) against the templates", _cmd_classify):
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--in2", dest="infile2")
        p.add_argument("--theorem", required=True, choices=["1.2", "1.1", "fact2.1"])
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--out")

    if p := command("classify-all", "enumerate + classify, summary table", _cmd_classify_all):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--out")

    if p := command("audit", "exact inequality audit over a grid", _cmd_audit):
        p.add_argument("--lemma", required=True, help=f"one of {', '.join(ALL_LEMMAS)} or 'all'")
        p.add_argument("--grid")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out")

    if p := command("eval", "print one exact formula value", _cmd_evaluate):
        p.add_argument("--formula", required=True, help="|".join(_FORMULAS))
        p.add_argument("--args", nargs="*", default=[], help="name=value pairs")

    if p := command("threshold", "ground-set size where the extremal classification is proved", _cmd_threshold):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--l", type=int, required=True)
        p.add_argument("--t", type=int, required=True)

    if p := command("leading-term", "normalized product convergence check", _cmd_leading_term):
        p.add_argument("--pair", required=True, choices=PAIR_KINDS)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--l", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--n-seq", required=True, help="comma list of ground-set sizes")
        p.add_argument("--tol", default="0.01")
        p.add_argument("--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(set(argv)).parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError) as exc:  # bad parameters, or a value undefined at them
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
