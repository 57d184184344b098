"""Golden CLI reports: the stdout sha256 of small invocations of every
subcommand, pinned so that refactors of the kernels cannot change a report.

Each case is a sequence of invocations run in a scratch directory (so that
file names in reports are relative and stable); the digest covers every exit
code and every byte written to stdout. `python tests/test_golden.py` prints
the digests of the current code in the form of GOLDEN.
"""

import hashlib
import sys

import pytest

from xfam.cli import main

CASES = {
    "construct": [
        ["construct", "--kind", "A", "--n", "8", "--k", "3", "--t", "1"],
        ["construct", "--kind", "B", "--n", "7", "--k", "3", "--t", "1", "--quad", "1 3 2 4"],
        ["construct", "--kind", "C1", "--n", "8", "--k", "4", "--t", "2"],
        ["construct", "--kind", "C2", "--n", "8", "--k", "4", "--t", "2", "--l", "4"],
        ["construct", "--kind", "H", "--n", "8", "--k", "3", "--t", "1", "--x", "2 3 4", "--y", "2 3"],
        ["construct", "--kind", "D", "--n", "9", "--k", "4", "--t", "2"],
    ],
    "verify-constructions-small": [
        ["verify-constructions", "--maximal", "--grid", "t=1,2;k=t+1..t+2;l=t+1..t+2;n=l+2..8"],
    ],
    # every pair kind, DD (outside the default kinds) included, at points
    # holding both (k, l) and (l, k), so both orders of one pair's stars
    "verify-constructions-kinds": [
        ["verify-constructions", "--maximal", "--kinds", "AA,BB,CC,DD,HH", "--grid", "t=1,2;k=t+1..t+2;l=t+1..t+2;n=l+2..8"],
    ],
    # star and covering sweeps on families large enough for the numpy branch
    "verify-constructions-n12": [
        ["verify-constructions", "--maximal", "--grid", "t=1;k=4;l=4;n=12"],
    ],
    # the default grid (1,656 pairs, n <= 16), as the grid benchmark runs it
    "verify-constructions-default": [
        ["verify-constructions", "--maximal"],
    ],
    # the default grid without --maximal, so no report measures a fixed point
    "verify-constructions-default-plain": [
        ["verify-constructions"],
    ],
    # the up-set path of select at 18 to 20 bits
    "verify-constructions-n20": [
        ["verify-constructions", "--maximal", "--grid", "t=1,2,3;k=t+3;l=t+3;n=18,20"],
    ],
    "enumerate-maximal": [
        ["enumerate-maximal", "--n", "5", "--k", "2", "--t", "1", "--json"],
        ["enumerate-maximal", "--n", "6", "--k", "3", "--t", "2"],
    ],
    "search": [
        ["search", "--n", "6", "--k1", "2", "--k2", "2", "--t", "1", "--min-tau", "2"],
        ["search", "--n", "5", "--k1", "2", "--k2", "3", "--t", "1", "--min-tau", "1"],
    ],
    # k1 = k2: one pair at (5,3,3,1); 30 tied winners in 2 classes at (6,3,3,2)
    "search-equal-sizes": [
        ["search", "--n", "5", "--k1", "3", "--k2", "3", "--t", "1", "--min-tau", "2"],
        ["search", "--n", "6", "--k1", "3", "--k2", "3", "--t", "2", "--min-tau", "2"],
    ],
    # no pair qualifies, so every pair is examined down to the smallest product
    "search-none-qualifies": [
        ["search", "--n", "6", "--k1", "2", "--k2", "3", "--t", "1", "--min-tau", "3"],
    ],
    # min-tau t+2 with a qualifying pair at (5,3,3,1) and (6,4,4,2), so the
    # (t+1)-sets keep a clique; min-tau = n, where none qualifies; min-tau 0
    "search-tau-edges": [
        ["search", "--n", "5", "--k1", "3", "--k2", "3", "--t", "1", "--min-tau", "3"],
        ["search", "--n", "6", "--k1", "4", "--k2", "4", "--t", "2", "--min-tau", "4"],
        ["search", "--n", "4", "--k1", "2", "--k2", "2", "--t", "1", "--min-tau", "4"],
        ["search", "--n", "5", "--k1", "2", "--k2", "2", "--t", "1", "--min-tau", "0"],
    ],
    "classify": [
        ["construct", "--kind", "A", "--n", "7", "--k", "3", "--t", "1", "--out", "a.txt"],
        ["classify", "--in", "a.txt", "--theorem", "1.2", "--t", "1"],
        ["construct", "--kind", "H", "--n", "7", "--k", "3", "--t", "1", "--x", "2 3 4", "--y", "2 3 4", "--out", "h.txt"],
        ["classify", "--in", "h.txt", "--theorem", "1.2", "--t", "1"],
        ["construct", "--kind", "C1", "--n", "7", "--k", "3", "--t", "1", "--out", "c1.txt"],
        ["construct", "--kind", "C2", "--n", "7", "--k", "3", "--t", "1", "--l", "3", "--out", "c2.txt"],
        ["classify", "--in", "c1.txt", "--in2", "c2.txt", "--theorem", "1.1", "--t", "1"],
        ["construct", "--kind", "A", "--n", "6", "--k", "3", "--t", "2", "--out", "s.txt"],
        ["classify", "--in", "s.txt", "--theorem", "fact2.1", "--t", "2"],
    ],
    "classify-all": [
        ["classify-all", "--n", "6", "--k", "3", "--t", "1"],
        ["classify-all", "--n", "7", "--k", "4", "--t", "2"],
    ],
    # (3,3,3) has no (t+1)-set; (4,3,1) is one complete family matching all
    # four templates; (5,4,3) and (9,8,7) count no T1.2-iv, so the key is dropped
    "classify-all-edges": [
        ["classify-all", "--n", "3", "--k", "3", "--t", "3"],
        ["classify-all", "--n", "4", "--k", "3", "--t", "1"],
        ["classify-all", "--n", "5", "--k", "4", "--t", "3"],
        ["classify-all", "--n", "9", "--k", "8", "--t", "7"],
    ],
    # the full-size points of the classify and search benchmark workloads
    "benchmark-points": [
        ["classify-all", "--n", "8", "--k", "4", "--t", "2"],
        ["search", "--n", "7", "--k1", "2", "--k2", "3", "--t", "1", "--min-tau", "2"],
    ],
    # walks of 69 and 85 vertices at (10,4,2) and of 85 at (9,2,3,1): rows
    # and cover words two 64-bit words wide, past every point above
    "multiword-points": [
        ["classify-all", "--n", "10", "--k", "4", "--t", "2"],
        ["search", "--n", "9", "--k1", "2", "--k2", "3", "--t", "1", "--min-tau", "2"],
    ],
    "audit-json": [
        ["audit", "--lemma", "all", "--grid", "t=1;k=2,3;l=2,3;n=259,600"],
    ],
    "audit-csv": [
        ["audit", "--lemma", "4.4ii", "--grid", "t=1,2;k=t+1..t+2;l=t+1..t+2;n=600,1300", "--format", "csv"],
    ],
    "eval": [
        ["eval", "--formula", "a", "--args", "x=3", "t=1", "n=259"],
        ["eval", "--formula", "f", "--args", "m=3", "k=3", "l=3", "n=20", "t=1"],
        ["eval", "--formula", "tilde-h", "--args", "x=3", "y=3", "t=1", "n=300"],
        ["eval", "--formula", "tau-bound", "--args", "tau_f=2", "tau_g=3", "k=3", "l=4", "n=40", "t=1"],
    ],
    "threshold": [
        ["threshold", "--k", "2", "--l", "2", "--t", "1"],
        ["threshold", "--k", "4", "--l", "3", "--t", "2"],
    ],
    "leading-term": [
        ["leading-term", "--pair", "CC", "--k", "4", "--l", "4", "--t", "2", "--n-seq", "1000,100000"],
    ],
}

# recorded before the k-subset table and select kernel replaced the
# per-module sweeps; a change here is a change of a report
GOLDEN = {
    "audit-csv": "89767fbf94955ffdc6a1ad13d99af10b0bb5bdba18a083352d308bd12d3e5b36",
    "audit-json": "4c60b70e373b2d79053d182ab4847a07f69d8f62a8750ab3fbe71df481f15863",
    "benchmark-points": "8c3d3df4224211ffa7a45abe477801b9fe51d5d013a5224497eff5307f1cee45",
    "classify": "3ca79309b79c295c52f806a98e2e33d09f4949cb0c08885cb1e7a26d8394901d",
    "classify-all": "75240d30e601f61ad735f034be4700cabc415f915ca3ffece1a9a3d923f9c84a",
    "classify-all-edges": "11e542885d4e3283c239f9b4c27998864b46dd6ad61a7539adcbc201fbd654cb",
    "construct": "61deb9a978fbfd00a809ad62173945c5c2115e04b49bca7874876f01da23376d",
    "enumerate-maximal": "de99b3f41005d2b8d2c41be3c6c268a7bbd72bf8946065119ac43013779831f7",
    "eval": "4e6cfe1749a4bedda6dd931e0fcfe6630eda774ae5f4b743753d6087dfb2bbf7",
    "leading-term": "b35eb57581d3ab149be9ef3816facf35041f82bbb1a936033c6216d968d16d81",
    "multiword-points": "9072c8a63f0452abc57c91020d9e32c8939936e7c78b0b167e28b1c2001cfc27",
    "search": "0f711bacfd11b527fc0395021815f745188db78d024a96750820c1fe2cac95c8",
    "search-equal-sizes": "4354fd1daa534b7916891fb3951ebe7e68e7f00dd5e1e1e3e4d68952ceddba7c",
    "search-none-qualifies": "2443ff992868c04b83f5bb37a91f7d2daa8a38a7785f176fde2904a3c1704f88",
    "search-tau-edges": "990f8aa255639baec612ae42332b3b09343db69fc776ef11d923781f676cce0c",
    "threshold": "857089a9b70b38f1a73771efea60119d0f17639bfb6c36c579ce0e5f4dc71e01",
    "verify-constructions-default": "26be5142732909835478c3f42fa44dbd5868a59df538e60a8291e15e8c79f283",
    "verify-constructions-default-plain": "bb907af11446e26962d75887ddcc6989dd4bd24414888d14a6c64463596dd81b",
    "verify-constructions-kinds": "36f9535debf0d642659676baa6ba6b25da1bdd76d85e6f7b5cd5a13cd26b4fc2",
    "verify-constructions-n12": "4240a0c09d6f21d5ee65283fcb284da26d1fd5097af6ce63c1c7773c33e9ac20",
    "verify-constructions-n20": "15e1970da9ab0ea4afefb54640e95a5d5cdd749d66b3374b32296a78cc805d4a",
    "verify-constructions-small": "5427cf4091bde85ce41c0a17db6057cf3bc12d3a3518250e77976c36505218ea",
}


def _digest(invocations, read_stdout) -> str:
    """sha256 over each exit code and the stdout text `read_stdout` returns
    (and clears) after each invocation."""
    h = hashlib.sha256()
    for argv in invocations:
        code = main(list(argv))
        h.update(f"{code}\n".encode())
        h.update(read_stdout().encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest(name, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert _digest(CASES[name], lambda: capsys.readouterr().out) == GOLDEN[name]


if __name__ == "__main__":
    import contextlib
    import io
    import os
    import tempfile

    def _read_and_clear(buf: io.StringIO) -> str:
        text = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return text

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        digests = {}
        for name in sorted(CASES):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                digests[name] = _digest(CASES[name], lambda: _read_and_clear(buf))
    for name, value in digests.items():
        sys.stdout.write(f'    "{name}": "{value}",\n')
