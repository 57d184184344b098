"""xfam benchmark: end-to-end timings and per-layer traces of four workloads.

    python3 perfbench/run.py --workload classify|search|grid|iso|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # all four at tiny size, traced and untraced
    python3 perfbench/run.py --record     # print expected.json for this commit

Run from the root of an xfam checkout. Every run is a fresh interpreter
(`worker.py`) so no cache survives from one run to the next; one run
happens at a time, and the next starts only after the previous has ended.
With `--workload all` the workloads take turns. Runs start while the next
one would end less than half a run after `--seconds`; each kind of run
happens at least once.

Every run is checked against `expected.json`: exit codes, the values the
workload must reproduce, and the sha256 of each report. The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and the
metrics named in BENCHMARK.json (end-to-end ones untraced, per-layer ones
with `--trace 1`). The exit code is 1 when any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
EXPECTED = BENCH_DIR / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = ("classify", "search", "grid", "iso")  # as in workloads.py, which imports xfam

SETUP_PROBES = 8  # import-only interpreters per untraced invocation, besides the runs
INVOCATION_LIMIT_S = 170  # no run may outlast this, counted from the start


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class Bench:
    """Spawns workers one at a time and keeps what they report."""

    def __init__(self, size: str, seed: int | None, spans_dir: str | None) -> None:
        self.size = size
        self.seed = seed
        self.spans_dir = spans_dir
        self.start = time.monotonic()
        self.env = worker_env()
        self.spawned = 0

    def spawn(self, extra: list[str]) -> tuple[dict | None, float, str]:
        """(record or None, setup seconds, error text) of one worker."""
        timeout = max(5.0, INVOCATION_LIMIT_S - (time.monotonic() - self.start))
        self.spawned += 1
        spawned_at = time.monotonic()
        with subprocess.Popen(
            [sys.executable, str(WORKER), *extra],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            try:
                out, err = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return None, 0.0, f"timed out after {timeout:.0f} s"
            except BaseException:
                proc.kill()
                proc.communicate()
                raise
        if proc.returncode != 0:
            return None, 0.0, f"worker exit {proc.returncode}: {err.strip()[-2000:]}"
        try:
            record = json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return None, 0.0, f"worker printed no record: {out[-500:]!r}"
        return record, record["ready"] - spawned_at, ""

    def probe(self) -> tuple[dict, float]:
        record, setup_s, error = self.spawn(["--setup-only"])
        if record is None:
            raise SystemExit(f"set-up probe failed: {error}")
        return record, setup_s

    def run(self, workload: str, traced: bool) -> dict:
        extra = ["--workload", workload, "--size", self.size]
        if self.seed is not None:
            extra += ["--seed", str(self.seed)]
        if traced:
            extra.append("--trace")
            if self.spans_dir:
                extra += ["--spans", str(Path(self.spans_dir) / f"{workload}-{self.spawned}.json")]
        began = time.monotonic()
        record, setup_s, error = self.spawn(extra)
        return {
            "workload": workload,
            "traced": traced,
            "record": record,
            "setup_s": setup_s,
            "duration": time.monotonic() - began,
            "error": error,
        }


def check(run: dict, expected: dict) -> str:
    """Why a run failed, or '' when it reproduced every expected value."""
    if run["record"] is None:
        return run["error"]
    want = expected[run["workload"]]
    got = run["record"]
    problems = []
    for key, value in want["summary"].items():
        if got["summary"].get(key) != value:
            problems.append(f"{key}: got {got['summary'].get(key)!r}, want {value!r}")
    if got["digests"] != want["digests"]:
        problems.append(f"report digests {got['digests']} differ from {want['digests']}")
    return "; ".join(problems)


def measure(workloads: list[str], bench: Bench, seconds: float, trace: bool, expected: dict):
    """Runs turn by turn while the next would end less than half a run past
    `seconds`, so the time measured rounds to the window, not below it."""
    deadline = bench.start + seconds
    versions, _ = bench.probe()  # also compiles bytecode; not a sample
    setup_samples: list[float] = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup_samples.append(bench.probe()[1])
    kinds = [(w, traced) for w in workloads for traced in ((False, True) if trace else (False,))]
    longest: dict[tuple[str, bool], float] = {}
    runs = []
    turn = 0
    while True:
        kind = kinds[turn % len(kinds)]
        if kind in longest and time.monotonic() + longest[kind] / 2 > deadline:
            break
        run = bench.run(*kind)
        run["failure"] = check(run, expected)
        if run["failure"]:
            print(f"FAIL {kind[0]}{' traced' if kind[1] else ''}: {run['failure']}", file=sys.stderr)
        longest[kind] = max(longest.get(kind, 0.0), run["duration"])
        runs.append(run)
        turn += 1
    return versions, setup_samples, runs


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles (the quartiles equal the value for one sample)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def end_to_end(runs: list[dict], setup_samples: list[float]) -> dict[str, list[float]]:
    untraced = [r for r in runs if not r["traced"] and r["record"] is not None]
    return {
        "wall_s": [r["record"]["wall_s"] for r in untraced],
        "cpu_s": [r["record"]["cpu_s"] for r in untraced],
        "setup_s": setup_samples + [r["setup_s"] for r in untraced],
        "peak_rss_mb": [r["record"]["peak_rss_mb"] for r in untraced],
    }


def per_layer(runs: list[dict], names: list[str]) -> dict[str, list[float]]:
    traced = [r["record"] for r in runs if r["traced"] and r["record"] is not None]
    untraced_wall = [r["record"]["wall_s"] for r in runs if not r["traced"] and r["record"] is not None]
    samples: dict[str, list[float]] = {}
    for name in names:
        if name == "trace.overhead_s":
            if traced and untraced_wall:
                overhead = statistics.median(t["wall_s"] for t in traced) - statistics.median(untraced_wall)
                samples[name] = [overhead]
        else:
            samples[name] = [t["layers"].get(name, 0) for t in traced]
    return samples


def environment(versions: dict, loadavg_1m: float) -> dict:
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "loadavg_1m_at_start": loadavg_1m,
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def record_expected() -> dict:
    """One unrelabelled, untraced run of every workload at every size."""
    expected: dict = {}
    for size in ("full", "smoke"):
        bench = Bench(size, None, None)
        expected[size] = {}
        for workload in WORKLOADS:
            run = bench.run(workload, False)
            if run["record"] is None:
                raise SystemExit(f"{workload} ({size}) failed: {run['error']}")
            expected[size][workload] = {"summary": run["record"]["summary"], "digests": run["record"]["digests"]}
    return expected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="directory for the raw spans of traced runs")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, every workload, traced and untraced")
    parser.add_argument("--record", action="store_true", help="print expected.json for the current code")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "xfam" / "__init__.py").is_file():
        print(f"no xfam sources under {ROOT / 'src'}; run from an xfam checkout", file=sys.stderr)
        return 2
    if args.record:
        print(json.dumps(record_expected(), indent=2, sort_keys=True))
        return 0

    spec = json.loads(BENCHMARK.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    size = "smoke" if args.smoke else "full"
    trace = args.smoke or bool(args.trace)
    seconds = 0.0 if args.smoke else args.seconds
    workloads = list(WORKLOADS) if args.smoke or args.workload == "all" else [args.workload]
    expected = json.loads(EXPECTED.read_text())[size]
    if args.spans:
        os.makedirs(args.spans, exist_ok=True)

    loadavg_1m = os.getloadavg()[0]
    bench = Bench(size, args.seed, args.spans)
    versions, setup_samples, runs = measure(workloads, bench, seconds, trace, expected)
    env = environment(versions, loadavg_1m)
    env.update(workload=args.workload, seed=args.seed, size=size, trace=int(trace), seconds=seconds)
    print("env " + json.dumps(env, sort_keys=True))

    # traced runs only feed the per-layer metrics, except in the smoke run,
    # which reports everything it measured
    report_end_to_end = args.smoke or not trace
    failed = sum(1 for r in runs if r["failure"])
    metrics: dict[str, dict] = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        bad = sum(1 for r in mine if r["failure"])
        print(f"{workload} fail_share = {bad / len(mine):.4f} ({bad}/{len(mine)} runs)")
        samples = end_to_end(mine, setup_samples) if report_end_to_end else {}
        if trace:
            samples.update(per_layer(mine, [m["name"] for m in spec["per_layer"]]))
            traced_wall = [r["record"]["wall_s"] for r in mine if r["traced"] and r["record"] is not None]
            if traced_wall:
                print(f"{workload} traced wall_s = {statistics.median(traced_wall):.6g} s (n={len(traced_wall)})")
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for name, values in samples.items():
            if not values:
                continue
            med, q1, q3 = spread(values)
            print(f"{workload} {name} = {med:.6g} {units[name]} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
            metrics[prefix + name] = {"value": med, "unit": units[name]}

    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
