"""Benchmark of expobasis: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify-contiguous --seed 1 --seconds 40 --trace 0

Runs whole passes over the workload's fixed batch (drawn from ``--seed``)
until another pass would end after ``--seconds``; at least one pass runs.
Times are CPU seconds (user + system) of the process doing the work, which
leave out the time the hypervisor steals from a shared virtual machine.
Every operation's output is checked, untimed, against the benchmark's own
reference. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from spans around each layer's public
functions) with ``--trace 1``. The exit code is 0 only when every output is
correct. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def prepare() -> None:
    """Pin one BLAS thread (before numpy loads) and import expobasis from the
    checkout's own source tree, never from an installed copy."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    src = ROOT / "src"
    if not (src / "expobasis" / "__init__.py").is_file():
        sys.exit(f"perfbench: no expobasis sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]


def setup_probe(workload: str, seed: int) -> None:
    """Fresh-interpreter set-up: import the package, build the inputs, and
    report the CPU time spent since the process started, and on the import."""
    start = time.process_time()
    import expobasis.cli  # noqa: F401

    import_s = time.process_time() - start
    import workloads

    work = tempfile.mkdtemp(dir=OUT)
    try:
        workloads.build(workload, seed, workloads.Context(str(ROOT), work))
    finally:
        shutil.rmtree(work)
    print(json.dumps({"import_s": import_s, "setup_s": time.process_time()}), flush=True)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time and import time over fresh interpreters."""
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            line = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait()
        finally:
            timer.cancel()
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        probe = json.loads(line)
        setups.append(probe["setup_s"])
        imports.append(probe["import_s"])
    return statistics.median(setups), statistics.median(imports)


LAYER_METRICS = (
    # (metric, span name, field, unit)
    ("cli.main_s", "cli.main", "s", "s"),
    ("jsonio.dumps_s", "jsonio.dumps", "s", "s"),
    ("jsonio.loads_s", "jsonio.loads", "s", "s"),
    ("constructions.construct_s", "constructions.construct", "s", "s"),
    ("constructions.associated_matrix_s", "constructions.associated_matrix", "s", "s"),
    ("constructions.calls", "constructions.construct", "calls", "count"),
    ("constructions.refusals", "constructions.construct", "refusals", "count"),
    ("vandermonde.build_gamma_s", "vandermonde.build_gamma", "s", "s"),
    ("vandermonde.gamma_entries", "vandermonde.build_gamma", "entries", "count"),
    ("clusters.partition_s", "clusters.partition", "s", "s"),
    ("clusters.partition_calls", "clusters.partition", "calls", "count"),
    ("spectral.oracle_s", "spectral.oracle", "s", "s"),
    ("spectral.oracle_calls", "spectral.oracle", "calls", "count"),
    ("spectral.oracle_entries", "spectral.oracle", "entries", "count"),
    ("verify.verify_s", "verify.verify", "s", "s"),
    ("verify.verify_self_s", "verify.verify", "self_s", "s"),
    ("verify.gram_build_s", "verify.gram_build", "s", "s"),
    ("verify.gram_entries", "verify.gram_build", "gram_entries", "count"),
    ("verify.gram_terms", "verify.gram_build", "gram_terms", "count"),
    ("verify.gram_bytes_max", "verify.gram_build", "gram_bytes_max", "B"),
    ("verify.sample_s", "verify.sample", "self_s", "s"),
    ("verify.sample_trials", "verify.sample", "trials", "count"),
    ("verify.regressions_s", "verify.regressions", "s", "s"),
)


def layer_metrics(summary: dict, import_s: float) -> dict:
    metrics = {"cli.import_s": {"value": import_s, "unit": "s"}}
    bytes_moved = sum(summary.get(name, {}).get("bytes", 0)
                      for name in ("jsonio.dumps", "jsonio.loads"))
    metrics["jsonio.bytes"] = {"value": bytes_moved, "unit": "B"}
    for metric, span, key, unit in LAYER_METRICS:
        metrics[metric] = {"value": summary.get(span, {}).get(key, 0), "unit": unit}
    return metrics


def checked(op, out) -> list:
    """The operation's problems. A check that raises, say on output it cannot
    parse, fails the operation; the run goes on and still prints its result."""
    try:
        return op.check(out)
    except Exception as exc:
        return [f"{op.label}: check raised {exc!r}"]


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import expobasis
    import selfcheck
    import tracing
    import workloads

    problems = [f"self-check: {p}" for p in selfcheck.problems()]
    setup_s, import_s = measure_setup(workload, seed)

    work = tempfile.mkdtemp(dir=OUT)
    try:
        ctx = workloads.Context(str(ROOT), work, in_process=trace)
        ops = workloads.build(workload, seed, ctx)
        tracer = None
        if trace:
            tracer = tracing.Tracer(expobasis.PreconditionError)
            tracer.install()
        pass_times, op_times, op_max = [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            times = []
            ctx.outputs.clear()
            for op in ops:
                if tracer is not None:
                    tracer.op += 1
                elapsed, out, exc = workloads.timed(op, ctx)
                times.append(elapsed)
                found = [f"{op.label}: raised {exc!r}"] if exc is not None else checked(op, out)
                attempted += 1
                if found:
                    failed += 1
                    problems += found
            pass_times.append(sum(times))
            op_times += times
            op_max.append(max(times))
            now = time.perf_counter()
            if now - start + (now - pass_start) > seconds:
                break
    finally:
        shutil.rmtree(work)

    if trace:
        metrics = layer_metrics(tracer.summary(len(pass_times)), import_s)
        (OUT / f"{workload}.trace.json").write_text(json.dumps(tracer.dump()))
    else:
        if ctx.child_rss_kb:
            rss_kb = max(ctx.child_rss_kb)
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "batch_s": {"value": statistics.median(pass_times), "unit": "s"},
            # a typical operation: a median of the mixed sizes of oracle-sweep
            # falls between two sizes and jumps from one to the other
            "op_gmean_s": {"value": statistics.geometric_mean(op_times), "unit": "s"},
            "op_max_s": {"value": statistics.median(op_max), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
    for line in problems[:20]:
        print(line, file=sys.stderr)
    correct = not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(f"{workload}: {len(pass_times)} passes of {len(ops)} operations, median pass "
          f"{statistics.median(pass_times):.3f} s", file=sys.stderr)
    line = json.dumps(result)
    (OUT / f"{workload}.result.json").write_text(line + "\n")
    print(line)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-contiguous", "verify-scattered", "oracle-sweep",
                                 "cli-roundtrip"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    prepare()
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
