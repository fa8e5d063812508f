#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout (no install needed)::

    python3 perfbench/run.py --workload sweep-1ton --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh processes that import the workload and start what it
serves), then timed passes of the workload until ``--seconds`` are
used.  ``--trace 1`` runs one untraced pass and two traced ones and
reports the per-layer metrics; the spans of the first traced pass are
written to ``.perfbench-out/``.

Every request's output is checked (report checks, byte equality with
``results/baseline`` at seed 0 for ``sweep-1ton``, byte equality with
``run_experiment`` for service results, equal bytes across passes and
between traced and untraced passes); ``failed`` counts the requests
that fail a check or do not complete.  The last stdout line is the
result object; the line before it carries provenance and the
exact-count pin.  Exit status is 0 whenever a result is printed.
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
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

DEFAULT_SEED = 0
#: Seed never used while tuning the benchmark; check claims on it too.
HELD_OUT_SEED = 20261017
#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 5
TRACED_PASSES = 2

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}/repro")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def provenance() -> dict:
    import numpy

    git_rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        git_rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest()[:16],
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def time_setup(workload: str) -> list[float]:
    """Seconds from spawning a fresh interpreter to the workload being
    ready (imports, experiment modules, server start), per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--setup-probe"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        samples.append(elapsed)
    return samples


def _compare(reference: dict, outputs: dict, failures: dict, what: str) -> None:
    for key, data in outputs.items():
        if key in reference and data != reference[key]:
            failures.setdefault(key, f"output differs from {what}")


def measure(workload, inputs, seconds: float) -> tuple[dict, int, int]:
    """Untraced passes until ``seconds`` are used; end-to-end metrics."""
    from perfbench.layers import percentile

    setup = time_setup(workload.name)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(inputs))
        if len(passes) >= workload.min_passes and (
            time.perf_counter() + passes[-1].wall_s > start + seconds
        ):
            break
    attempted = failed = 0
    for p in passes:
        # Every pass replays the same specs, so outputs must repeat.
        _compare(passes[0].outputs, p.outputs, p.failures, "the first pass")
        attempted += p.attempted
        failed += len(p.failures)
    latencies = [s for p in passes for s in p.latencies_s]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "request_p50_ms": 1000 * percentile(latencies, 50),
        "request_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_samples_s": setup,
        "requests_timed": len(latencies),
        "failures": {k: v for p in passes for k, v in p.failures.items()},
    }
    return {"metrics": metrics, "details": details}, attempted, failed


def traced(workload, inputs, seed: int) -> tuple[dict, int, int]:
    """One untraced pass, then traced twins; per-layer metrics."""
    from perfbench import layers
    from perfbench.spans import Tracer

    plain = workload.run_pass(inputs)
    runs = []
    for i in range(TRACED_PASSES):
        tracer = Tracer(run_id=f"{workload.name}/seed{seed}/pass{i + 1}")
        try:
            layers.install(tracer)
            with tracer.span("bench", "pass"):
                result = workload.run_pass(inputs, tracer)
        finally:
            tracer.restore()
        runs.append((tracer, result))

    attempted, failed = plain.attempted, len(plain.failures)
    for _tracer, result in runs:
        _compare(plain.outputs, result.outputs, result.failures, "untraced twin")
        attempted += result.attempted
        failed += len(result.failures)

    traced_wall = [r.wall_s for _t, r in runs]
    overhead = statistics.mean(traced_wall) / plain.wall_s
    per_run = [
        layers.layer_metrics(t, r.stats, r.service, overhead) for t, r in runs
    ]
    # The exact-count pin is one more check.
    pin = [{k: m[k] for k in layers.PIN_COUNTS} for m in per_run]
    attempted += 1
    failed += any(p != pin[0] for p in pin)
    metrics = {}
    for name, unit in layers.METRICS:
        values = [m[name] for m in per_run]
        metrics[name] = values[0] if unit in ("count", "bytes") else statistics.median(values)

    first_tracer = runs[0][0]
    spans_path = OUT / f"trace-{workload.name}-seed{seed}.jsonl.gz"
    first_tracer.write(spans_path, {"workload": workload.name, "seed": seed})
    details = {
        "pin": pin[0],
        "pin_repeats": all(p == pin[0] for p in pin),
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced_wall,
        "spans": len(first_tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "failures": {
            k: v
            for p in [plain] + [r for _t, r in runs]
            for k, v in p.failures.items()
        },
    }
    return {"metrics": metrics, "details": details}, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _load_program()
    from perfbench import layers
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            workload.setup(workdir)
            print("ready", flush=True)
            return 0
        workload.setup(workdir)
        inputs = workload.prepare(args.seed, workdir, ROOT)
        if args.trace:
            result, attempted, failed = traced(workload, inputs, args.seed)
            units = dict(layers.METRICS)
        else:
            result, attempted, failed = measure(workload, inputs, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance(),
        **result["details"],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": result["metrics"]}, indent=1, sort_keys=True)
    )
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
