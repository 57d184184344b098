"""The four benchmark workloads, at full and smoke size.

A workload runs inside a fresh worker interpreter. `run` does the timed
work and returns its raw outputs; `summarize` turns them into the exact
values the benchmark checks (`summary`) and the report digests
(`digests`). Both are compared with `expected.json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import xfam
import xfam.cli

SIZES = ("full", "smoke")

CLI_ARGS = {
    "classify": {
        "full": [["classify-all", "--n", "8", "--k", "4", "--t", "2"]],
        "smoke": [["classify-all", "--n", "6", "--k", "3", "--t", "1"]],
    },
    "search": {
        "full": [["search", "--n", "7", "--k1", "2", "--k2", "3", "--t", "1", "--min-tau", "2"]],
        "smoke": [["search", "--n", "5", "--k1", "2", "--k2", "2", "--t", "1", "--min-tau", "1"]],
    },
    "grid": {
        "full": [["verify-constructions", "--maximal"], ["audit", "--lemma", "all"]],
        "smoke": [
            ["verify-constructions", "--maximal", "--grid", "t=1;k=2,3;l=2,3;n=l+2..8"],
            ["audit", "--lemma", "all", "--grid", "t=1;k=2;l=2,3;n=259,260"],
        ],
    },
}

ISO_PARAMS = {"full": (7, 3, 1), "smoke": (5, 2, 1)}

WORKLOADS = ("classify", "search", "grid", "iso")


def prepare(workload: str, size: str, seed: int | None):
    """Inputs made before the timed region. Only `iso` has any: every
    maximal family, each relabelled by its own permutation drawn from the
    seed (no relabelling when `seed` is None)."""
    if workload != "iso":
        return CLI_ARGS[workload][size]
    n, k, t = ISO_PARAMS[size]
    families = xfam.enumerate_maximal_t_intersecting(n, k, t)
    if seed is None:
        return families
    rng = random.Random(seed)
    relabelled = []
    for fam in families:
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        relabelled.append(xfam.relabel(fam, perm))
    return relabelled


def run(workload: str, inputs) -> list:
    """The timed work. CLI workloads call the `xfam` entry point once per
    command and return (exit code, stdout text); `iso` returns the
    canonical form of each family and the families grouped by form."""
    if workload == "iso":
        forms = [xfam.canonical_form(fam) for fam in inputs]
        classes: dict[bytes, list[int]] = {}
        for i, form in enumerate(forms):
            classes.setdefault(form, []).append(i)
        return [forms, classes]
    outputs = []
    for argv in inputs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = xfam.cli.main(list(argv))
        outputs.append((code, buf.getvalue()))
    return outputs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summarize(workload: str, outputs: list) -> tuple[dict, list[str], int]:
    """(checked values, digests, report bytes) of one run's outputs."""
    if workload == "iso":
        forms, classes = outputs
        framed = b"".join(len(f).to_bytes(4, "big") + f for f in forms)
        summary = {
            "families": len(forms),
            "classes": len(classes),
            "class_sizes": sorted(len(members) for members in classes.values()),
        }
        return summary, [_sha256(framed)], 0
    codes = [code for code, _ in outputs]
    texts = [text for _, text in outputs]
    digests = [_sha256(text.encode()) for text in texts]
    report_bytes = sum(len(text.encode()) for text in texts)
    reports = [json.loads(text) for text in texts]
    summary: dict = {"exit_codes": codes, "verdicts": [r["verdict"] for r in reports]}
    if workload == "classify":
        res = reports[0]["results"]
        summary.update(
            maximal_families=res["maximal_families"],
            with_min_cover_t_plus_1=res["with_min_cover_t_plus_1"],
            matches_per_template=res["matches_per_template"],
            unmatched=len(res["unmatched"]),
        )
    elif workload == "search":
        res = reports[0]["results"]
        summary.update(
            pairs_examined=res["pairs_examined"],
            best_product=res["best_product"],
            witnesses=len(res["witnesses"]),
        )
    elif workload == "grid":
        pairs, audit = reports[0]["results"], reports[1]["results"]
        summary.update(
            pair_reports=len(pairs),
            maximal_measured=sum(1 for rep in pairs if rep.get("maximal_measured")),
            audit_points=sum(rep["checked"] for rep in audit),
            audit_violations=sum(rep["violations"] for rep in audit),
        )
    return summary, digests, report_bytes
