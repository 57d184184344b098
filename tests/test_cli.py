import argparse
import inspect
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from helpers import jsonable_reference
from hypothesis import example, given, settings, strategies as st

import xfam.classify
import xfam.cli
import xfam.constructions
import xfam.core
import xfam.formulas
from xfam import Family, covering_number, is_cross_t_intersecting, is_maximal_pair, verify_grid
from xfam.cli import _dumps, main
from xfam.constructions import PAIR_KINDS, default_grid


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# the CLI in a fresh interpreter whose address space is capped at 512 MiB,
# with the peak of the memory Python allocated during `main` as the last
# line of stderr
CAPPED = """
import resource, sys, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
from xfam.cli import main
tracemalloc.start()
code = main(sys.argv[1:])
print(tracemalloc.get_traced_memory()[1], file=sys.stderr)
sys.exit(code)
"""


def run_capped(*argv):
    """Exit code, stdout, stderr without its last line, and the peak bytes
    allocated, of the CLI on `argv` run by CAPPED. A grid that is listed or
    walked against its budget fails with a MemoryError or the timeout,
    without filling the memory of the machine or stalling the suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", CAPPED, *argv], env=env, capture_output=True, text=True, timeout=60)
    err, _, peak = proc.stderr.rstrip("\n").rpartition("\n")
    return proc.returncode, proc.stdout, err + "\n", int(peak) if peak.isdigit() else None


def test_threshold(capsys):
    code, out, _ = run(capsys, "threshold", "--k", "2", "--l", "2", "--t", "1")
    assert code == 0 and out.strip() == "259"
    # outside the theorem (t >= 1, k and l >= t+1) there is no threshold
    for k, l, t in ((-3, 2, 1), (1, 1, 3), (0, 0, 0)):
        code, out, err = run(capsys, "threshold", "--k", str(k), "--l", str(l), "--t", str(t))
        assert code == 2 and out == "" and "the threshold needs t >= 1 and k, l >= t+1" in err, (k, l, t)


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "--formula", "a", "--args", "x=2", "t=1", "n=6")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "eval", "--formula", "tilde-a", "--args", "x=2", "t=1", "n=259")
    assert code == 0 and out.strip() == "3/1"
    code, _, err = run(capsys, "eval", "--formula", "a", "--args", "x=2")
    assert code == 2 and "missing" in err


def test_construct_and_classify_roundtrip(capsys, tmp_path):
    path = tmp_path / "fam.txt"
    code, _, _ = run(capsys, "construct", "--kind", "A", "--n", "6", "--k", "3", "--t", "1", "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert text.startswith("# n=6 k=3")
    code, out, _ = run(capsys, "classify", "--in", str(path), "--theorem", "1.2", "--t", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["results"]["template"] == "T1.2-i"


def test_classify_missing_file(capsys):
    code, _, err = run(capsys, "classify", "--in", "/nonexistent/fam.txt", "--theorem", "1.2", "--t", "1")
    assert code == 2 and "cannot read" in err


def test_audit_json_and_determinism(capsys):
    args = ["audit", "--lemma", "4.4ii", "--grid", "t=1;k=2,3;l=2,3;n=600,1300"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdict"] == "pass"
    assert payload["results"][0]["violations"] == 0


def test_audit_csv(capsys):
    code, out, _ = run(capsys, "audit", "--lemma", "eq9", "--grid", "t=1;k=2;l=2;n=259", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("lemma,verdict")
    assert len(lines) == 3  # both (x, y) orders of one point


def test_search(capsys):
    code, out, _ = run(
        capsys, "search", "--n", "5", "--k1", "2", "--k2", "2", "--t", "1", "--min-tau", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["best_product"] == "16"
    assert payload["results"]["at_proved_threshold"] is False


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate-maximal", "--n", "5", "--k", "2", "--t", "1", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["results"]["count"] == 15
    # every pair of the 1,128 k-sets meets in t elements: one clique, as
    # deep as the graph, past the default recursion limit
    argv = ("enumerate-maximal", "--n", "48", "--k", "46", "--t", "44", "--json")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["results"]["count"] == 1


def test_classify_all(capsys):
    code, out, _ = run(capsys, "classify-all", "--n", "5", "--k", "2", "--t", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["unmatched"] == []
    assert payload["results"]["with_min_cover_t_plus_1"] == 10


def test_verify_constructions(capsys):
    code, out, _ = run(
        capsys,
        "verify-constructions",
        "--grid",
        "t=1;k=2,3;l=2,3;n=l+2..8",
        "--kinds",
        "AA,BB",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    # BB needs four elements for its anchor quad; smaller points skip it
    code, out, _ = run(capsys, "verify-constructions", "--grid", "t=1;k=2;l=2;n=3")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert [r["pair_kind"] for r in payload["results"]] == ["AA", "CC", "HH"]
    # a repeated kind is run once, as a repeated grid point is
    code, out, _ = run(capsys, "verify-constructions", "--kinds", "AA,AA", "--grid", "t=1;k=2;l=2;n=5")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["kinds"] == ["AA"]
    assert [r["pair_kind"] for r in payload["results"]] == ["AA"]


def test_leading_term(capsys):
    code, out, _ = run(
        capsys, "leading-term", "--pair", "AA", "--k", "3", "--l", "3", "--t", "1", "--n-seq", "1000,100000"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["constant"] == 9
    # t is a positive integer: there is no leading term to check at t = 0
    argv = ("leading-term", "--pair", "AA", "--k", "2", "--l", "2", "--t", "0", "--n-seq", "100,1000,100000")
    assert run(capsys, *argv) == (2, "", "error: need t >= 1, got t=0\n")


def test_audit_scores_no_point_with_t_below_1(capsys):
    # a point with t = 0 is precondition-unmet and says why, even at an n at
    # or past the threshold the formula gives there (18 at t = 0, k = l = 1)
    code, out, _ = run(capsys, "audit", "--lemma", "4.4ii", "--grid", "t=0..1;k=t+1;l=t+1;n=18,259")
    assert code == 0
    (report,) = json.loads(out)["results"]
    assert report["checked"] == 1
    assert [(p["params"]["t"], p["params"]["n"], p["verdict"], p["note"]) for p in report["points"]] == [
        (0, 18, "precondition-unmet", "needs t >= 1"),
        (0, 259, "precondition-unmet", "needs t >= 1"),
        (1, 18, "precondition-unmet", "below the global n threshold"),
        (1, 259, "holds", ""),
    ]


def test_a_failed_check_exits_1_with_a_fail_verdict(capsys, monkeypatch, tmp_path):
    # a maximal pair with covering numbers 2 that no Theorem 1.1 template
    # matches: a witness of `search --n 5 --k1 2 --k2 3 --t 1 --min-tau 2`
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    first.write_text("# n=5 k=2\n1 2\n1 3\n2 3\n1 4\n2 5\n")
    second.write_text("# n=5 k=3\n1 2 3\n1 2 4\n2 3 4\n1 2 5\n1 3 5\n")
    # one audit check and one construction size check made to fail
    def fails(t, k, l, n):
        return [xfam.formulas._point({"t": t, "k": k, "l": l, "n": n}, False, 0, 1)]

    monkeypatch.setitem(xfam.formulas._AUDITORS, "eq9", fails)
    monkeypatch.setattr(xfam.constructions.ConstructionSpec, "closed_form", lambda spec: -1)
    for argv in (
        ("leading-term", "--pair", "AA", "--k", "3", "--l", "3", "--t", "1", "--n-seq", "10"),
        ("classify", "--in", str(first), "--in2", str(second), "--theorem", "1.1", "--t", "1"),
        ("audit", "--lemma", "eq9", "--grid", "t=1;k=2;l=2;n=259"),
        ("verify-constructions", "--kinds", "AA", "--grid", "t=1;k=2;l=2;n=5"),
    ):
        code, out, _ = run(capsys, *argv)
        report = json.loads(out)
        assert (code, report["command"], report["verdict"]) == (1, argv[0], "fail"), argv


def test_bad_construct_args(capsys):
    code, _, err = run(capsys, "construct", "--kind", "B", "--n", "6", "--k", "2", "--t", "1", "--quad", "1 2 2 4")
    assert code == 2 and "error" in err


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "verify-constructions", "--grid", "t=1")
    assert code == 2 and "lacks k, l, n" in err
    code, _, err = run(capsys, "eval", "--formula", "tilde-a", "--args", "x=2", "t=1")
    assert code == 2 and "missing arguments: n" in err
    code, _, err = run(capsys, "eval", "--formula", "tau-bound", "--args", "tau_f=2", "tau_g=3")
    assert code == 2 and "missing arguments: k, l, n, t" in err
    # grid bounds are integer terms, never code
    for grid in ("t=1;k=y;l=2;n=5", "t=(1).__class__.__name__.__len__();k=2;l=2;n=5", "t=1;k=2;l=2;n=l+2.."):
        code, out, err = run(capsys, "verify-constructions", "--grid", grid)
        assert code == 2 and out == "" and "Traceback" not in err and "bad grid bound" in err, grid
    # '²'.isdigit() is true, but int() refuses it: the message names the bound
    code, out, err = run(capsys, "audit", "--lemma", "all", "--grid", "t=²;k=2;l=2;n=5")
    assert code == 2 and out == "" and err.startswith("error: bad grid bound '²': ")
    # so are the integer lists of the other options, and the message names the list
    for argv, message in (
        (("leading-term", "--pair", "AA", "--k", "3", "--l", "3", "--t", "1", "--n-seq", "3,a"), "bad integer list '3,a': "),
        (("leading-term", "--pair", "AA", "--k", "3", "--l", "3", "--t", "1", "--n-seq", "1000,٣٠٠٠"), "bad integer list '1000,٣٠٠٠': "),
        (("construct", "--kind", "B", "--n", "6", "--k", "2", "--t", "1", "--quad", "1,2,x,4"), "bad integer list '1,2,x,4': "),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: " + message), argv
    # H anchors are checked for range before any mask is built
    for x, y in (("2,3,4", "0,3"), ("0,2,3", "2,3")):
        code, out, err = run(capsys, "construct", "--kind", "H", "--n", "8", "--k", "3", "--t", "1", "--x", x, "--y", y)
        assert code == 2 and out == "" and err == "error: X and Y must live inside [t+1, n]\n", (x, y)
    # and for repeats: X = 2,2,3 is the 2-set {2,3}, not the 3-set |X| = k-t+1 needs
    code, out, err = run(capsys, "construct", "--kind", "H", "--n", "8", "--k", "3", "--t", "1", "--x", "2,2,3", "--y", "2,3")
    assert code == 2 and out == "" and err == "error: X and Y must not repeat an element, got X=(2, 2, 3) Y=(2, 3)\n"
    # invalid (n, k, t) is refused before any enumeration
    for argv in (
        ("search", "--n", "65", "--k1", "1", "--k2", "1", "--t", "1", "--min-tau", "1"),
        ("search", "--n", "4", "--k1", "2", "--k2", "2", "--t", "3", "--min-tau", "1"),
        ("enumerate-maximal", "--n", "4", "--k", "2", "--t", "0"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "need 1 <= t <= k <= n" in err, argv
    # values undefined at the given parameters are usage errors, not tracebacks
    for argv in (
        ("verify-constructions", "--grid", "t=1;k=2;l=2;n=65"),
        ("leading-term", "--pair", "AA", "--k", "3", "--l", "3", "--t", "1", "--n-seq", "100", "--tol", "1/0"),
        ("leading-term", "--pair", "AA", "--k", "3", "--l", "3", "--t", "1", "--n-seq", "0"),
        ("eval", "--formula", "tilde-a", "--args", "x=1", "t=1", "n=5"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: "), argv
    # an unwritable --out is a usage error, not a traceback
    for argv in (
        ("construct", "--kind", "A", "--n", "5", "--k", "3", "--t", "1", "--out", "/nonexistent/x.txt"),
        ("classify-all", "--n", "5", "--k", "2", "--t", "1", "--out", str(tmp_path)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: cannot write "), argv
    # a family file element outside 1..64 is named with its line
    for bad, lineno in (("0 2", 1), ("1 2\n-3 4", 2), ("1 65", 1)):
        path = tmp_path / "bad.txt"
        path.write_text(bad + "\n")
        code, out, err = run(capsys, "classify", "--in", str(path), "--theorem", "1.2", "--t", "1")
        assert code == 2 and out == "" and f"line {lineno}" in err and "1..64" in err, bad
    # as is a line that repeats an element, and one with a token that is no integer
    path.write_text("1 1 2\n1 2 3\n")
    code, out, err = run(capsys, "classify", "--in", str(path), "--theorem", "1.2", "--t", "1")
    assert code == 2 and out == "" and "line 1" in err and "repeats an element" in err
    path.write_text("1 a 2\n")
    code, out, err = run(capsys, "classify", "--in", str(path), "--theorem", "1.2", "--t", "1")
    assert code == 2 and out == "" and err.startswith("error: line 1 ('1 a 2'): ")
    # every usage error goes through main's one "error: " path
    for argv, message in (
        (("eval", "--formula", "a", "--args", "x3", "t=1", "n=259"), "bad argument 'x3'"),
        (("eval", "--formula", "zz", "--args", "x=1"), "unknown formula 'zz'"),
        (("classify", "--in", str(path), "--theorem", "1.1", "--t", "1"), "needs --in2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: ") and message in err, argv


def test_header_n_below_an_element_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# n=3 k=2\n1 5\n")
    code, out, err = run(capsys, "classify", "--in", str(path), "--theorem", "1.2", "--t", "1")
    assert code == 2 and out == "" and err.startswith("error: line 2 ('1 5'): ") and "n=3" in err


def test_eval_lists_missing_arguments_in_signature_order(capsys):
    # side, the first parameter of tau-bound, defaults to 0 (F) on the command line
    expected = {
        "g": "m, x, y, t, n",
        "a": "x, t, n",
        "c1": "y, t, n",
        "c2": "x, y, t, n",
        "h": "x, y, t, n",
        "f": "m, k, l, n, t",
        "tilde-a": "x, t, n",
        "tilde-h": "x, y, t, n",
        "tilde-g": "m, x, y, t, n",
        "tilde-c1c2": "x, y, t, n",
        "tau-bound": "tau_f, tau_g, k, l, n, t",
    }
    assert sorted(expected) == sorted(xfam.cli._FORMULAS)
    for formula, names in expected.items():
        code, out, err = run(capsys, "eval", "--formula", formula)
        assert code == 2 and out == "" and err == f"error: missing arguments: {names}\n", formula


def test_readme_library_api_names_every_export():
    # the backticked names of README's Library API paragraph, less the CLI
    # commands, the package and the benchmark workload it names
    section = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").split("## Library API")[1]
    named = set(re.findall(r"`([^`]+)`", section.split("\n## ")[0]))
    (commands,) = [a.choices for a in xfam.cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    exports = {name for name, value in vars(xfam).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert named - set(commands) - {"xfam", "iso"} == exports


def test_tau_bound_side(capsys):
    bound = ("tau_f=2", "tau_g=3", "k=3", "l=4", "n=40", "t=1")
    values = [run(capsys, "eval", "--formula", "tau-bound", "--args", f"side={side}", *bound) for side in (0, 1)]
    assert [code for code, _, _ in values] == [0, 0] and values[0][1] != values[1][1]
    code, out, err = run(capsys, "eval", "--formula", "tau-bound", "--args", "side=7", *bound)
    assert code == 2 and out == "" and "side must be 0 (F) or 1 (G), got 7" in err


def test_search_past_the_old_subset_cap(capsys):
    # 28 2-sets a side, refused by the old cap of 22; every witness is a
    # star fixed point with both covering numbers at least min-tau
    code, out, _ = run(capsys, "search", "--n", "8", "--k1", "2", "--k2", "2", "--t", "1", "--min-tau", "2")
    assert code == 0
    witnesses = json.loads(out)["results"]["witnesses"]
    assert witnesses
    for w in witnesses:
        f, g = (Family.from_sets(8, 2, [tuple(m) for m in w[side]["members"]]) for side in ("first", "second"))
        assert is_cross_t_intersecting(f, g, 1) and is_maximal_pair(f, g, 1)
        assert covering_number(f, 1).tau >= 2 and covering_number(g, 1).tau >= 2


def test_budget_refusals(capsys, monkeypatch):
    # before any table: V^2 vertex comparisons over the budget, V counting
    # N[v0] alone (all 715 4-sets of side 1 and the 589 of side 2 meeting v0)
    code, out, err = run(capsys, "search", "--n", "13", "--k1", "4", "--k2", "4", "--t", "1", "--min-tau", "2")
    assert code == 2 and out == "" and "Traceback" not in err
    message = "N[{1,2,3,4}] in C(13,4) + C(13,4) = 1,304 vertices need 1,700,416 comparisons"
    assert f"{message}, over the budget of 1,300,000" in err
    # during the walk: the 20 vertices of enumerate-maximal, and the 19 of
    # N[v0] for classify-all and search, fit a budget of 400; their 1,024
    # maximal cliques, and the 512 through v0, do not. The walk restores the
    # recursion limit it raised
    monkeypatch.setattr(xfam.core, "BUDGET", 400)
    limit = sys.getrecursionlimit()
    for argv in (
        ("classify-all", "--n", "6", "--k", "3", "--t", "1"),
        ("enumerate-maximal", "--n", "6", "--k", "3", "--t", "1", "--json"),
        ("search", "--n", "5", "--k1", "2", "--k2", "3", "--t", "1", "--min-tau", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "Traceback" not in err, argv
        assert err == "error: found more than the budget of 400 maximal cliques\n", argv
        assert sys.getrecursionlimit() == limit


def test_cover_rows_count_against_the_budget(capsys):
    # C(30,10) + C(30,11) cover rows of one 30-set: refused before any table
    start = time.perf_counter()
    code, out, err = run(capsys, "classify-all", "--n", "30", "--k", "30", "--t", "10")
    assert code == 2 and out == "" and time.perf_counter() - start < 1
    assert "84,672,315 cover rows of 1 vertices need 84,672,315 comparisons, over the budget of 1,300,000" in err
    # 490,314 rows of one vertex, and the classify benchmark point, fit
    for argv in (("--n", "22", "--k", "22", "--t", "7"), ("--n", "8", "--k", "4", "--t", "2")):
        code, out, _ = run(capsys, "classify-all", *argv)
        assert code == 0 and json.loads(out)["verdict"] == "pass", argv


def test_subset_tables_count_against_the_budget(capsys, tmp_path):
    # the C(40,20) 20-subsets of [40]: refused before the table is built,
    # by a construction and by the classifier on a one-member family
    path = tmp_path / "one.txt"
    path.write_text("# n=40 k=20\n" + " ".join(map(str, range(1, 21))) + "\n")
    for argv in (
        ("construct", "--kind", "A", "--n", "40", "--k", "20", "--t", "1"),
        ("classify", "--theorem", "1.2", "--t", "1", "--in", str(path)),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and time.perf_counter() - start < 1, argv
        assert err == "error: C(40,20) subsets need 137,846,528,820 masks, over the budget of 1,300,000\n", argv


def test_classify_all_past_the_full_walk(capsys):
    # 2,050,807 and 34,043,581 maximal families, past the budget of the full
    # walk. Independent path: T1.2-iii counts each family once per minimum
    # cover, and each (t+1)-set carries as many instances as [t+1]
    for n, k, t, families, iii in ((11, 4, 2, 2_050_807, 800_580), (13, 5, 3, 34_043_581, 12_782_055)):
        code, out, _ = run(capsys, "classify-all", "--n", str(n), "--k", str(k), "--t", str(t))
        assert code == 0 and json.loads(out)["verdict"] == "pass"
        results = json.loads(out)["results"]
        rows = sum(1 for _, name, _ in xfam.classify.theorem_1_2_instances(n, k, t) if name == "T1.2-iii")
        assert results["matches_per_template"]["T1.2-iii"] == comb(n, t + 1) * rows == iii
        assert results["maximal_families"] == families


def test_search_min_tau_above_n(capsys):
    # [n] is a t-cover, so no family over [n] has tau_t > n: nothing to search
    code, out, err = run(capsys, "search", "--n", "4", "--k1", "2", "--k2", "2", "--t", "1", "--min-tau", "99")
    assert code == 2 and out == ""
    assert err == "error: min-tau 99 > n = 4: no family over [n] has a larger covering number, since [n] is a t-cover\n"
    # min-tau <= t filters nothing, and min-tau = n is still a question
    for min_tau in ("0", "1", "4"):
        code, out, _ = run(capsys, "search", "--n", "4", "--k1", "2", "--k2", "2", "--t", "1", "--min-tau", min_tau)
        assert code == 0 and json.loads(out)["verdict"] == "pass", min_tau


def test_search_negative_min_tau(capsys):
    # a covering number is never negative; min-tau 0 stays a valid filter
    for min_tau in ("-1", "-3"):
        code, out, err = run(capsys, "search", "--n", "4", "--k1", "2", "--k2", "2", "--t", "1", "--min-tau", min_tau)
        assert code == 2 and out == ""
        assert err == f"error: min-tau {min_tau} < 0: a covering number is never negative\n"


def test_empty_checks_are_usage_errors(capsys):
    # a run that would check nothing must not report a pass
    for argv in (
        ("verify-constructions", "--kinds", "BB", "--grid", "t=2;k=3;l=3;n=8"),
        ("verify-constructions", "--kinds", "BB", "--grid", "t=1;k=2;l=2;n=3"),
        ("verify-constructions", "--grid", "t=1;k=2;l=2;n=2..1"),
        ("verify-constructions", "--maximal", "--grid", "t=2..1;k=2;l=2;n=5"),
        ("audit", "--lemma", "all", "--grid", "t=1;k=2;l=2;n=2..1"),
        ("audit", "--lemma", "eq9", "--grid", "t=1;k=3..2;l=2;n=259", "--format", "csv"),
        # nonempty grids where every point is precondition-unmet
        ("audit", "--lemma", "all", "--grid", "t=1;k=2;l=2;n=3"),
        ("audit", "--lemma", "4.7ii", "--grid", "t=1;k=2,3;l=2,3;n=259,600"),
        ("audit", "--lemma", "4.7ii", "--grid", "t=1;k=2,3;l=2,3;n=259,600", "--format", "csv"),
        # t = 0 lies outside the paper, whatever n is
        ("audit", "--lemma", "4.4ii", "--grid", "t=0;k=1;l=1;n=18"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: ") and "Traceback" not in err, argv
        assert "no points" in err or "no pair" in err, argv
    # a product with at least one pair still runs
    code, out, _ = run(capsys, "verify-constructions", "--kinds", "BB,AA", "--grid", "t=2;k=3;l=3;n=8")
    assert code == 0 and [r["pair_kind"] for r in json.loads(out)["results"]] == ["AA"]


def test_classify_missing_partner_file(capsys, tmp_path):
    path = tmp_path / "fam.txt"
    run(capsys, "construct", "--kind", "A", "--n", "6", "--k", "3", "--t", "1", "--out", str(path))
    code, _, err = run(capsys, "classify", "--in", str(path), "--in2", "/nonexistent/fam.txt", "--theorem", "1.1", "--t", "1")
    assert code == 2 and "cannot read" in err


def test_grid_points():
    from xfam.cli import _parse_grid

    assert _parse_grid("t=1,2;k=t+1..t+2;l=t+1..t+2;n=l+2..8", None) == [
        (t, k, l, n)
        for t in (1, 2)
        for k in range(t + 1, t + 3)
        for l in range(t + 1, t + 3)
        for n in range(l + 2, 9)
    ]
    assert _parse_grid("t=1;k=2,3;l=2,3;n=l+2..10", None) == [
        (1, k, l, n) for k in (2, 3) for l in (2, 3) for n in range(l + 2, 11)
    ]
    assert _parse_grid("t=1;k=4;l=4;n=12", None) == [(1, 4, 4, 12)]
    assert _parse_grid("t=1;k=2;l=2,3;n=259,260", None) == [(1, 2, l, n) for l in (2, 3) for n in (259, 260)]
    assert _parse_grid("t = 2 ; k=t + 1..5 - t ; l=k-1 ; n=10, l+k", None) == [
        (2, 3, 2, 5),
        (2, 3, 2, 10),
    ]


def test_grid_over_the_budget_is_refused_before_it_is_listed(capsys, monkeypatch):
    from xfam.cli import _parse_grid

    # 100,000,000 points in one range of n: counted, never listed
    code, out, err, peak = run_capped("audit", "--lemma", "all", "--grid", "t=1;k=2;l=2;n=1..100000000")
    assert (code, out) == (2, ""), err
    assert err == (
        "error: grid spec 't=1;k=2;l=2;n=1..100000000' walks 100,000,003 or more values of t, (t, k), (t, k, l)"
        " and (t, k, l, n), over the budget of 1,300,000\n"
    )
    assert peak < 1 << 20
    # a bound past 64 bits; a grid over the budget only across its ranges of n
    code, _, err, _ = run_capped("verify-constructions", "--grid", "t=1;k=2;l=2;n=1.." + "9" * 30)
    assert code == 2 and f"walks {10**30 + 2:,} or more" in err, err
    # 1 value of t, 1 (t, k), 2 (t, k, l) and 10 points: the budget itself passes
    monkeypatch.setattr(xfam.core, "BUDGET", 14)
    assert len(_parse_grid("t=1;k=2;l=2,3;n=1..5", None)) == 10
    monkeypatch.setattr(xfam.core, "BUDGET", 13)
    code, _, err = run(capsys, "audit", "--lemma", "all", "--grid", "t=1;k=2;l=2,3;n=1..5")
    assert code == 2 and "walks 14 or more values of t, (t, k), (t, k, l) and (t, k, l, n), over the budget of 13" in err


def test_grid_prefixes_count_against_the_budget(capsys, monkeypatch):
    # grids whose ranges of l are empty have no points, yet walking their
    # (t, k) prefixes is work: 1,000 values of t and the 1,000 (1, k) prefixes
    # pass a budget of 2,000; the (2, k) prefixes are refused before any is walked
    spec = "t=1..1000;k=1..1000;l=2..1;n=5"
    monkeypatch.setattr(xfam.core, "BUDGET", 2000)
    code, out, err = run(capsys, "verify-constructions", "--grid", spec)
    assert (code, out) == (2, "")
    assert err == (
        f"error: grid spec {spec!r} walks 3,000 or more values of t, (t, k), (t, k, l) and (t, k, l, n),"
        " over the budget of 2,000\n"
    )
    monkeypatch.undo()
    # a million values of t and of k: refused at t = 1, with 2,000,000 counted
    spec = "t=1..1000000;k=1..1000000;l=2..1;n=5"
    code, out, err, _ = run_capped("audit", "--lemma", "all", "--grid", spec)
    assert (code, out) == (2, ""), err
    assert "walks 2,000,000 or more values of t, (t, k), (t, k, l) and (t, k, l, n), over the budget" in err
    code, _, err = run(capsys, "audit", "--lemma", "all", "--grid", "t=1;k=1..1000;l=2..1;n=5")
    assert code == 2 and "has no points" in err  # 1,001 walked, within the budget


def test_classify_all_calls_no_covering_number(capsys, monkeypatch, tmp_path):
    # classify-all counts templates off the minimum-cover matrix; the library
    # covering_number, the matcher and Family objects are only its test oracle
    from test_golden import CASES, GOLDEN, _digest

    def refuse(*args, **kwargs):
        raise AssertionError("covering_number called")

    for module in (xfam.core, xfam.cli, xfam.classify):
        monkeypatch.setattr(module, "covering_number", refuse, raising=False)
    matched, built = [], []
    match = xfam.classify.match_theorem_1_2

    def counting_match(*args):
        matched.append(args)
        return match(*args)

    for module in (xfam, xfam.cli, xfam.classify):
        monkeypatch.setattr(module, "match_theorem_1_2", counting_match, raising=False)
    # every Family construction, from any module, passes __post_init__
    check = Family.__post_init__

    def counting_check(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Family, "__post_init__", counting_check)
    monkeypatch.chdir(tmp_path)
    # the golden case runs (6,3,1) and (7,4,2); its digest covers the exit codes
    assert _digest(CASES["classify-all"], lambda: capsys.readouterr().out) == GOLDEN["classify-all"]
    assert (len(matched), len(built)) == (0, 0)
    Family(3, 1, (1,))
    assert len(built) == 1  # the counter sees a construction


EDGE_INTS = [sign * (2**53 + d) for sign in (1, -1) for d in (-1, 0)]
REPORT_LEAVES = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2014\U0001d11e", "a\"b\\c\nd\te"]),
    st.integers(),
    st.sampled_from(EDGE_INTS),
    st.fractions(),
    st.booleans(),
    st.none(),
)
REPORTS = st.recursive(
    REPORT_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(REPORTS)
@example({})
@example([])
@example(())
@example({"": {"b": [], "a": ()}, "\u00e9": [{}, EDGE_INTS, Fraction(-7, 3)]})
def test_report_writer_matches_json_dumps(value):
    assert _dumps(value) == json.dumps(jsonable_reference(value), indent=2, sort_keys=True)


def test_report_writer_refuses_what_no_report_holds():
    # the lab has no floating point; sets and non-string keys have no JSON order
    for value in (1.5, {"a": [0.0]}, {1, 2}, [frozenset()], {1: "a"}, {"a": {None: 1}}):
        with pytest.raises(TypeError):
            _dumps(value)


def test_report_writer_holds_the_text_about_twice():
    # the default-grid verify report, about 0.97 MB of text: joining the
    # pieces in bounded chunks keeps the peak under three times the text
    # (a list of every piece held about seven times as much)
    reports = verify_grid(PAIR_KINDS, default_grid(), check_maximal=True)
    payload = {
        "command": "verify-constructions",
        "params": {"grid": "default", "kinds": list(PAIR_KINDS)},
        "results": reports,
        "verdict": "pass",
    }
    tracemalloc.start()
    try:
        text = _dumps(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 900_000 and peak < 3 * len(text)
    assert text == json.dumps(jsonable_reference(payload), indent=2, sort_keys=True)


def test_verify_constructions_refuses_an_invalid_pair(capsys):
    # HH and DD at k = t = 2, after the valid pair at t = 1: the first
    # invalid spec stops the run with its own text
    for kinds, message in (("HH", "need |X ∩ Y| >= 2"), ("DD", "need k >= t+1")):
        for extra in ((), ("--maximal",)):
            code, out, err = run(capsys, "verify-constructions", *extra, "--kinds", kinds, "--grid", "t=1,2;k=2;l=3;n=6")
            assert (code, out, err) == (2, "", f"error: {message}\n")


def _parse_outcome(parse, argv, capsys):
    """(exit code, stdout, stderr) of parsing `argv` with `parse`, which
    exits on every argv here."""
    with pytest.raises(SystemExit) as done:
        parse(argv)
    out = capsys.readouterr()
    return done.value.code, out.out, out.err


def test_main_parses_as_the_full_parser(capsys):
    # main builds the arguments of the command it runs alone; help, usage
    # and every error read as the full parser's
    commands = ["construct", "verify-constructions", "enumerate-maximal", "search", "classify"]
    commands += ["classify-all", "audit", "eval", "threshold", "leading-term"]
    cases = [[], ["--help"], ["-h", "construct"], ["nosuch"], ["nosuch", "--help"]]
    cases += [[name, "--help"] for name in commands]
    cases += [
        ["construct", "--n", "3"],
        ["threshold", "--k", "x", "--l", "2", "--t", "1"],
        ["threshold", "--k", "2", "--l", "2", "--t", "1", "--bogus"],
        ["--bogus", "threshold", "--k", "2", "--l", "2", "--t", "1"],
        ["classify", "--in", "a.txt", "--theorem", "2.0", "--t", "1"],
        ["eval", "--formula", "a", "--args", "construct", "--out"],
    ]
    for argv in cases:
        expect = _parse_outcome(xfam.cli.build_parser().parse_args, argv, capsys)
        assert _parse_outcome(main, argv, capsys) == expect, argv
        assert expect[0] in (0, 2) and (expect[1] or expect[2])
