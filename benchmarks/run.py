"""Benchmark for robust-trees: run one workload and print its metrics.

    python3 benchmarks/run.py --workload tree-fit --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --selftest

Run from a checkout; the package is imported from ``src/`` and the synthetic
data generators from ``tests/synth.py``.  Each run starts worker processes
(worker.py) with ``ROBUST_TREES_THREADS`` set to the usable CPU count and the
BLAS pools pinned to one thread.  ``setup_s`` is the median over
SETUP_RUNS set-ups: one per worker process, of which all but the last stop
after set-up.  With ``--trace 0`` the last line of standard output holds the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics, and the spans go to ``benchmarks/out/``.

Outputs are checked against the fingerprints pinned in ``reference.json``
for the default seed at full size; any other seed prints its fingerprints so
that two versions of the package can be compared for equality.  A mismatch,
an exception or an inconsistent answer counts as a failed operation, and the
run then exits with status 1.  Without the package sources the run exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_RUNS = 3
DEADLINE_S = 170.0  # every run ends well within three minutes
WORKLOADS = ("tree-fit", "forest", "grid")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def metric_specs(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["ROBUST_TREES_THREADS"] = str(len(os.sched_getaffinity(0)))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def run_worker(args, work: Path, deadline: float, setup_only: bool) -> dict:
    out = work / f"result-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work", str(work), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    if args.trace and not setup_only:
        cmd += ["--trace-file", str(OUT / f"trace-{args.workload}-seed{args.seed}.json")]
    cmd += ["--t0", repr(time.monotonic())]
    # The worker's standard output carries the package's own status lines.
    subprocess.run(cmd, env=worker_env(), stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(out.read_text(encoding="utf-8"))


def reference_for(args) -> dict | None:
    if args.reference is not None:
        return json.loads(args.reference.read_text(encoding="utf-8"))
    if args.seed == DEFAULT_SEED and args.size == "full":
        return json.loads(REFERENCE.read_text(encoding="utf-8"))[args.workload]
    return None


def compare(reference: dict, found: dict) -> list[str]:
    return sorted(k for k in reference.keys() | found.keys() if reference.get(k) != found.get(k))


def measure(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    units = metric_specs(args.trace)
    if not (ROOT / "src" / "robust_trees" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "synth.py").is_file():
        print(f"error: {ROOT} holds no robust-trees sources (src/robust_trees, tests/synth.py)",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        setups = [] if args.trace else [
            run_worker(args, work, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_RUNS - 1)]
        result = run_worker(args, work, deadline, setup_only=False)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"env": result["env"], "passes": result["passes"]}), file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    found = result.get("fingerprints")
    reference = reference_for(args)
    mismatched = compare(reference, found) if reference is not None and found else []
    if mismatched:
        print(f"fingerprints differ from the reference: {mismatched}", file=sys.stderr)
        failed += len(mismatched) * result["passes"]
    if found is not None and (reference is None or mismatched):
        print(json.dumps({"workload": args.workload, "seed": args.seed, "size": args.size,
                          "fingerprints": found}))

    values = dict(result.get("end_to_end") or result.get("per_layer") or {})
    if not args.trace and values:
        values["setup_s"] = statistics.median(setups + [result["setup_s"]])
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    missing = sorted(units.keys() - metrics.keys())
    if values and missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        failed += 1
    correct = failed == 0 and not missing and found is not None
    failed = failed if correct else max(failed, 1)
    print(json.dumps({"correct": correct, "attempted": max(attempted, failed),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Harness self-test
# ---------------------------------------------------------------------------

def _invoke(workload: str, trace: int, extra=()) -> tuple[int, list[dict]]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "small", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=DEADLINE_S + 10)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return proc.returncode, lines


def selftest() -> int:
    """Reduced-size runs of every workload: every metric is printed with its
    unit, and an altered reference fingerprint is reported as a failure."""
    problems: list[str] = []
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT))
    try:
        for workload in WORKLOADS:
            for trace in (0, 1):
                where = f"{workload} --trace {trace}"
                code, lines = _invoke(workload, trace)
                if code != 0 or len(lines) < 2:
                    problems.append(f"{where}: exit {code}, {len(lines)} JSON lines")
                    continue
                result, printed = lines[-1], lines[-2]
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{where}: result keys {sorted(result)}")
                if not result.get("correct") or result.get("failed") != 0:
                    problems.append(f"{where}: not correct: {result}")
                got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
                if got != metric_specs(trace):
                    problems.append(f"{where}: metrics {got} != {metric_specs(trace)}")
                for name, m in result.get("metrics", {}).items():
                    if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
                        problems.append(f"{where}: {name} = {m['value']!r}")
                if trace:
                    continue
                fingerprints = printed.get("fingerprints", {})
                exact = work / f"{workload}-exact.json"
                exact.write_text(json.dumps(fingerprints), encoding="utf-8")
                code, lines = _invoke(workload, 0, ["--reference", str(exact)])
                if code != 0 or not lines or not lines[-1]["correct"]:
                    problems.append(f"{where}: its own fingerprints are rejected")
                key = sorted(fingerprints)[0]
                altered = dict(fingerprints, **{key: "0" + fingerprints[key][1:]
                                                if fingerprints[key][0] != "0"
                                                else "1" + fingerprints[key][1:]})
                bad = work / f"{workload}-altered.json"
                bad.write_text(json.dumps(altered), encoding="utf-8")
                code, lines = _invoke(workload, 0, ["--reference", str(bad)])
                if code == 0 or not lines or lines[-1]["correct"] or lines[-1]["failed"] < 1:
                    problems.append(f"{where}: altered fingerprint {key} not reported")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"selftest": "fail" if problems else "pass", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: reduced inputs for the self-test")
    ap.add_argument("--reference", type=Path, default=None,
                    help="fingerprints JSON to check against instead of reference.json")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if args.selftest:
        OUT.mkdir(exist_ok=True)
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
