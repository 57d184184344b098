"""Fuzz the CLI exit-code contract: 0 pass, 1 failed check, 2 usage error,
and never a traceback. Each argv is one subcommand with its required flags
(now and then one dropped), some of its optional flags, and values that are
mostly consistent and small, otherwise out of range (-1, 0, 65) or not
numbers at all. Ground sets stay at n <= 6 (n <= 5 for `search`, whose pair
count explodes at n = 6, k = 3) unless a check refuses the instance, so each
example runs in milliseconds."""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from xfam.cli import _FORMULAS, _arguments, main
from xfam.formulas import ALL_LEMMAS

OUT_OF_RANGE = st.sampled_from([-1, 0, 65])
JUNK = st.sampled_from(["", "x", "1/0", "2..1", "1.5", "-"])


def mostly(common, rare):
    """`common` about five times out of six (`one_of` would weigh the two
    evenly)."""
    return st.sampled_from([True] * 5 + [False]).flatmap(lambda c: common if c else rare)


def num(lo, hi):
    return mostly(st.integers(lo, hi), OUT_OF_RANGE)


def chain(lo, hi, length):
    """Mostly `length` integers lo <= a1 <= a2 <= ... <= hi; else any mix of
    in-range and out-of-range values."""
    steps = st.lists(st.integers(0, hi - lo), min_size=length, max_size=length).map(
        lambda s: [min(hi, lo + sum(s[: i + 1])) for i in range(length)]
    )
    return mostly(steps, st.lists(num(lo, hi), min_size=length, max_size=length))


def with_names(names, values, **fixed):
    """A strategy of flag dicts: `names` zipped with the drawn values, plus
    one drawn value per `fixed` flag."""
    return st.tuples(values, st.fixed_dictionaries(fixed)).map(lambda vf: {**vf[1], **dict(zip(names, vf[0]))})


def elements(n_max):
    return st.lists(num(1, n_max), max_size=5).map(lambda xs: " ".join(map(str, xs)))


def grid():
    point = chain(1, 6, 4).map(lambda p: "t={};k={};l={};n={}".format(*p))
    ranges = chain(1, 7, 4).map(lambda p: "t=1..{};k=t+1..{};l=k..{};n=l+1..{}".format(*p))
    return mostly(st.one_of(point, ranges), JUNK)


def command(name, required, optional=None, always=None, sep=" "):
    """[name] + flags: `required` (a dict of strategies, or a strategy of a
    dict) with now and then one flag dropped, any of the `optional` flags,
    and every `always` flag; a value None marks a bare switch. With sep="="
    each flag is one name=value word."""
    if isinstance(required, dict):
        required = st.fixed_dictionaries(required)
    optional = st.fixed_dictionaries({}, optional={f: st.just(v) if v is None else v for f, v in (optional or {}).items()})
    kept = st.fixed_dictionaries(always or {})

    def words(flags, drop=None):
        out = []
        for f, v in flags.items():
            if f == drop:
                continue
            if v is None:
                out.append(f)
            elif sep == " ":
                out += [f, str(v)]
            else:
                out.append(f"{f}{sep}{v}")
        return out

    def build(req):
        drop = mostly(st.just(None), st.sampled_from(list(req))) if req else st.just(None)
        return st.tuples(drop, optional, kept).map(lambda d: [name] + words(req, d[0]) + words({**d[1], **d[2]}))

    return required.flatmap(build)


def eval_argv():
    def with_args(formula):
        names = _arguments(_FORMULAS[formula]) if formula in _FORMULAS else ("x",)
        args = command("eval", {x: mostly(num(0, 6), JUNK) for x in names}, {"z": num(0, 6)}, sep="=")
        return args.map(lambda words: ["eval", "--formula", formula, "--args", *words[1:]])

    return st.sampled_from(sorted(_FORMULAS) + ["q"]).flatmap(with_args)


def argv_strategy(family_file):
    files = st.sampled_from([family_file, family_file + ".missing"])
    tkn = chain(1, 6, 3)
    n_seq = mostly(st.lists(st.integers(1, 2000), min_size=1, max_size=3), st.lists(num(1, 2000), max_size=3))
    return st.one_of(
        command(
            "construct",
            with_names(("--t", "--k", "--n"), tkn, **{"--kind": st.sampled_from(["A", "B", "C1", "C2", "H", "D", "Z"])}),
            {"--l": num(1, 6), "--x": elements(6), "--y": elements(6), "--quad": elements(6), "--anchor": elements(6)},
        ),
        command(
            "verify-constructions",
            {},
            {"--kinds": st.sampled_from(["AA", "BB", "CC", "HH", "AA,HH", "ZZ", ""]), "--maximal": None},
            always={"--grid": grid()},
        ),
        command("enumerate-maximal", with_names(("--t", "--k", "--n"), tkn), {"--json": None}),
        command(
            "search",
            with_names(("--t", "--k1", "--n"), chain(1, 5, 3), **{"--k2": num(1, 5), "--min-tau": num(1, 3)}),
        ),
        command(
            "classify",
            {"--in": files, "--theorem": st.sampled_from(["1.2", "1.1", "fact2.1", "9"]), "--t": num(1, 2)},
            {"--in2": files},
        ),
        command("classify-all", with_names(("--t", "--k", "--n"), tkn)),
        command(
            "audit",
            {"--lemma": st.sampled_from(list(ALL_LEMMAS) + ["all", "nope"])},
            {"--format": st.sampled_from(["json", "csv", "xml"])},
            always={"--grid": grid()},
        ),
        eval_argv(),
        command("threshold", with_names(("--t", "--k", "--l"), chain(1, 6, 3))),
        command(
            "leading-term",
            with_names(
                ("--t", "--k", "--l"),
                chain(1, 6, 3),
                **{"--pair": st.sampled_from(["AA", "HH", "CC", "BB", "ZZ"]), "--n-seq": n_seq.map(lambda ns: ",".join(map(str, ns)))},
            ),
            {"--tol": mostly(st.sampled_from(["0.01", "1/2", "1"]), st.one_of(OUT_OF_RANGE, JUNK))},
        ),
        st.lists(st.one_of(num(0, 6).map(str), JUNK), max_size=3),
    )


@pytest.fixture(scope="module")
def family_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "fam.txt"
    assert main(["construct", "--kind", "A", "--n", "6", "--k", "3", "--t", "1", "--out", str(path)]) == 0
    return str(path)


def run_cli(argv):
    """Exit code and stderr of one in-process CLI run; any exception other
    than argparse's SystemExit propagates (it would be a traceback)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def test_cli_never_crashes(family_file):
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(argv_strategy(family_file))
    def check(argv):
        code, err = run_cli(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, argv

    check()


@pytest.mark.parametrize("header", ["# n=x", "# n=-3", "# n=65", "# n=6 k=1.5", "# n=6 k=-1", "# k=99"])
def test_bad_header_names_its_line(tmp_path, header):
    path = tmp_path / "fam.txt"
    path.write_text(f"{header}\n1 2\n")
    code, err = run_cli(["classify", "--in", str(path), "--theorem", "1.2", "--t", "1"])
    assert code == 2 and err.startswith(f"error: line 1 ({header!r}): "), err
    assert "must be an integer in 0..64" in err
