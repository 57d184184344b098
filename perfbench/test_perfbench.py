"""Tests of the benchmark itself: `python3 -m pytest -q perfbench`.

Everything runs in subprocesses, so the tracer never patches the xfam
modules of the test process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import worker_env  # noqa: E402


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=worker_env(), capture_output=True, text=True, timeout=170
    )


def _worker(workload: str, *extra: str) -> dict:
    proc = _run([str(BENCH_DIR / "worker.py"), "--workload", workload, "--size", "smoke", "--seed", "3", *extra])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_smoke_run_passes_every_check_and_reports_every_metric():
    proc = _run(["perfbench/run.py", "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 8
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for workload in ("classify", "search", "grid", "iso"):
        for name in names:
            assert f"{workload}.{name}" in result["metrics"]


def test_tracing_leaves_every_report_unchanged():
    for workload in ("classify", "search", "grid", "iso"):
        plain, traced = _worker(workload), _worker(workload, "--trace")
        assert traced["digests"] == plain["digests"]
        assert traced["summary"] == plain["summary"]


def test_tracer_rebinds_every_import_site(tmp_path):
    spans_file = tmp_path / "spans.json"
    record = _worker("classify", "--trace", "--spans", str(spans_file))
    dump = json.loads(spans_file.read_text())
    # defined in core; imported by the package, cli, classify, enumeration, constructions
    assert dump["rebound_sites"]["core.covering_number"] == 6
    # every covering_number call is seen: classify-all's own plus the matcher's
    tau_t_plus_1 = record["summary"]["with_min_cover_t_plus_1"]
    calls = record["layers"]["core.covering_number.calls"]
    assert calls == record["summary"]["maximal_families"] + tau_t_plus_1
    assert record["layers"]["classify.classify_theorem_1_2.calls"] == tau_t_plus_1
    spans = dump["spans"]
    assert len(spans) == sum(v for k, v in record["layers"].items() if k.endswith(".calls"))
    for name, start, end, parent in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["perfbench/run.py", "--workload", "iso", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
