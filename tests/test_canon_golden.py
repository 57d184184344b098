"""The canonical-form search on the benchmark's `iso` inputs, pinned.

Every maximal (7,3,1) family is relabelled as `perfbench/workloads.prepare`
does it (`random.Random(0)`, one shuffle of [1..7] per family, in
enumeration order) and canonicalized with an empty form memo. The forms,
the search nodes and leaves visited, the memo's hits, misses and first key
hits, and the number of searches built (only inputs whose first key
misses build one) are fixed: a change to the refinement that keeps the
bytes but alters the search tree, or stops inputs from ending at their
first key before any search state, shows here.
`python tests/test_canon_golden.py` prints the values of the current code
in the form of GOLDEN.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from xfam import canon, canonical_form, enumerate_maximal_t_intersecting, relabel

GOLDEN = {
    "digest": "a7d89ea25cc6f8a23b4aaafe3d0ae25821f49c796ec9c844c49155c8e95ac13e",
    "nodes": 337,
    "leaves": 109,
    "hits": 6112,
    "misses": 15,
    "first_hits": 6071,
    "searches": 56,
}

EXPECTED_JSON = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def iso_inputs():
    rng = random.Random(0)
    families = []
    for fam in enumerate_maximal_t_intersecting(7, 3, 1):
        perm = list(range(1, 8))
        rng.shuffle(perm)
        families.append(relabel(fam, perm))
    return families


def measure() -> dict:
    """Forms digest, node and leaf totals, memo counts and searches built in
    one pass over the inputs with an empty memo (the module's memo is
    restored after)."""
    searches = []

    class Counted(canon._Canonicalizer):
        def run(self):
            searches.append(self)
            return super().run()

    memo = canon._FormMemo(canon._MEMO_MASKS)
    saved = canon._FORMS, canon._Canonicalizer
    canon._FORMS, canon._Canonicalizer = memo, Counted
    try:
        forms = [canonical_form(f) for f in iso_inputs()]
    finally:
        canon._FORMS, canon._Canonicalizer = saved
    framed = b"".join(len(f).to_bytes(4, "big") + f for f in forms)
    return {
        "digest": hashlib.sha256(framed).hexdigest(),
        "nodes": sum(s.nodes for s in searches),
        "leaves": sum(s.leaves for s in searches),
        "hits": memo.hits,
        "misses": memo.misses,
        "first_hits": memo.first_hits,
        "searches": len(searches),
    }


def test_iso_search_is_pinned():
    assert measure() == GOLDEN


def test_pinned_digest_is_the_benchmark_one():
    expected = json.loads(EXPECTED_JSON.read_text())
    assert expected["full"]["iso"]["digests"] == [GOLDEN["digest"]]


if __name__ == "__main__":
    for name, value in measure().items():
        sys.stdout.write(f"    {name!r}: {value!r},\n".replace("'", '"'))
