#!/usr/bin/env python3
"""Benchmark of the mbofs select pipeline: IG prefilter, MBO / binary-PSO
wrapper search scored by cross-validated NB, and NB/DT evaluation.

    python3 perfbench/run.py --workload planted-search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run is one fresh process on one workload. It times the program from
outside, around calls into mbofs public functions, and checks the outputs
after timing ends. Its last stdout line is one JSON object: correct,
attempted, failed and metrics (the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer metrics with --trace 1). `--workload all` runs every
workload untraced and then traced, one process at a time, and prints each
metric with its unit and the tracing overhead.

See perfbench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("planted-search", "planted-eval", "text-wide")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def _selected(report) -> tuple[float, int]:
    """Accuracy and size of the most accurate selected mask (ties: fewer features)."""
    rows = [m for m in report.methods if m.name != "raw"]
    best = min(rows, key=lambda m: (-m.accuracy, m.m_prime))
    return best.accuracy, best.m_prime


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from mbofs import harness

    import checks
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    work = ROOT / ".bench_work" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    source = wl.prepare(seed, work)

    rec = None
    if trace:
        import layers
        from tracer import Recorder, per_span_cost

        span_cost = per_span_cost()
        rec = Recorder()
        layers.install(rec)

    # set-up: the same input turned into a matrix setup_reps times
    setup_times, setup_digests = [], []
    for _ in range(wl.setup_reps):
        t0 = time.perf_counter()
        matrix, terms, stats = wl.setup(source)
        setup_times.append(time.perf_counter() - t0)
        w = matrix.weights
        setup_digests.append(hashlib.sha256(
            w.data.tobytes() + w.indices.tobytes() + w.indptr.tobytes()
            + matrix.labels.tobytes()).hexdigest())
    setup_end = len(rec.spans) if rec else 0

    # rounds: whole run_experiment calls until the next one would overrun
    rounds = []
    started = time.perf_counter()
    while True:
        out = work / f"round{len(rounds)}"
        t0 = time.perf_counter()
        report = harness.run_experiment(wl.config(out), matrix=matrix, terms=terms, stats=stats)
        rounds.append((time.perf_counter() - t0, report, out))
        if trace:
            break
        longest = max(r[0] for r in rounds)
        if time.perf_counter() - started + longest > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    run_s = statistics.median(r[0] for r in rounds)
    first_report, first_out = rounds[0][1], rounds[0][2]
    tours = len((first_out / "trace_mbo.txt").read_text().splitlines()) \
        if (first_out / "trace_mbo.txt").exists() else 0
    if trace:
        rec.uninstall()
        metrics = layers.setup_metrics(rec, 0, setup_end, wl.setup_reps)
        metrics.update(layers.run_metrics(rec, setup_end, rounds[0][0], tours,
                                          _dir_bytes(first_out), span_cost))
        rec.write(work.parent / f"{name}-seed{seed}.spans.jsonl")
    else:
        sel_acc, sel_features = _selected(first_report)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": run_s,
            "peak_rss_mb": peak_rss_mb,
            "ig_accuracy": next(m.accuracy for m in first_report.methods if m.name == "ig"),
            "selected_accuracy": sel_acc,
            "selected_features": sel_features,
        }

    # checks, after all timing
    digests = [{p.name: _digest(p) for p in sorted(out.glob("mask_*.txt"))}
               for _, _, out in rounds]
    ig_mask = harness.load_mask(first_out / "mask_ig.txt")
    results = checks.report_checks(matrix, first_report, first_out)
    round_ok = all(ok for _, ok, _ in results)
    op_results = [("setup output equals the first set-up", d == setup_digests[0], "")
                  for d in setup_digests]
    op_results += [(f"round {i}: checks pass and masks equal round 0",
                    round_ok and d == digests[0], "") for i, d in enumerate(digests)]
    op_results += checks.seeded_nb_checks(matrix, ig_mask, seed)
    if wl.eval_classifier in ("dt", "best"):
        op_results.append(checks.cart_check(matrix, ig_mask, seed))

    failed = sum(1 for _, ok, _ in op_results if not ok)
    for label, ok, detail in results + op_results:
        if not ok:
            print(f"CHECK FAILED {name}: {label} {detail}", file=sys.stderr)
    shutil.rmtree(work)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(rounds),
        "checks": len(results) + len(op_results),
        "check_failures": sum(1 for _, ok, _ in results + op_results if not ok),
        # MethodResult.elapsed_s is left out: it covers evaluation for raw/ig
        # but only the search for mbo/pso
        "methods": [{k: v for k, v in vars(m).items() if k != "elapsed_s"}
                    for m in first_report.methods],
        "mask_digests": digests[0],
        "environment": _environment(),
        "result": {
            "correct": failed == 0,
            "attempted": len(op_results),
            "failed": failed,
            "metrics": metrics,
        },
    }


def _units(spec: dict, trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _print_metrics(metrics: dict, units: dict, indent: str = "  "):
    for key, value in metrics.items():
        print(f"{indent}{key:32s} {value:>16.6g} {units.get(key, '')}")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    spec = _spec()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        plain = None
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return _fail(f"{name} trace={trace} exited {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            detail = json.loads(next(l for l in lines if l.startswith('{"check_failures"')))
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            units = _units(spec, bool(trace))
            values = {k: v["value"] for k, v in result["metrics"].items()}
            _print_metrics(values, units)
            if trace:
                overhead = values["trace.run_s"] - plain["run_s"]
                print(f"  {'tracing overhead (traced - untraced run_s)':48s} {overhead:.4f} s")
            else:
                plain = values
                for m in detail["methods"]:
                    print(f"  report row {m['name']:4s} accuracy {m['accuracy']:.4f} "
                          f"({m['classifier']}) features {m['m_prime']} status {m['status']}")
                print("  mask digests "
                      + " ".join(f"{k}={v}" for k, v in detail["mask_digests"].items()))
            for k, v in result["metrics"].items():
                summary["metrics"][f"{name}/{'trace' if trace else 'e2e'}/{k}"] = v
    print(json.dumps(summary))
    return 0 if summary["correct"] and summary["failed"] == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark the mbofs select pipeline.")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mbofs" / "__init__.py").is_file():
        return _fail(f"no program source at {ROOT / 'src' / 'mbofs'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        return _fail("BENCHMARK.json not found")
    if args.workload == "all":
        return run_all(args)

    # cap native thread pools at the CPUs this process may use, before numpy loads
    for var in BLAS_VARS:
        os.environ.setdefault(var, str(len(os.sched_getaffinity(0))))
    sys.path.insert(0, str(ROOT / "src"))

    detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = detail.pop("result")
    units = _units(_spec(), bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    _print_metrics(result["metrics"], units)
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
