"""coxmra benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload mc_study --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports coxmra from its
`src/`.  Set-up (import, config validation, seeded inputs) is timed in
fresh interpreters; then the workload's fixed job repeats on the same
inputs until the next repetition would end after --seconds (at least
MIN_REPS times).  With --trace 0 it reports the end-to-end metrics listed
in BENCHMARK.json; with --trace 1 it wraps the library's public functions
and reports the per-layer metrics, plus the tracing overhead.  A summary
goes to stdout, the full record to perfbench/out/, and the last stdout
line is the JSON result.  See perfbench/README.md.
"""

import os
import sys

# pin BLAS threads before numpy is first imported
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("mc_study", "loo_cross", "cli_counts")
SETUP_PROBES = 3
MIN_REPS = {0: 2, 1: 3}  # trace 1: traced, plain, traced at least
PROBE_MARK = "setup-done"


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter until its set-up ends.

    Both processes read CLOCK_MONOTONIC (time.monotonic on Linux), so the
    child's end mark is comparable with the parent's launch time."""
    workdir = OUT / f"probe-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe", str(workdir)],
            capture_output=True, text=True, timeout=60, check=False,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in proc.stdout.splitlines():
        if line.startswith(PROBE_MARK):
            return float(line.split()[1]) - t0
    raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {proc.stderr.strip()}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
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
    return None


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
    }


def _measure(job, inputs, workdir: Path, seconds: float, trace: int, tracer):
    """Repeat the job; returns one record per repetition."""
    reps = []
    t_start = time.perf_counter()
    while True:
        k = len(reps)
        traced = trace == 1 and k % 2 == 0
        steps = []

        @contextmanager
        def span(name):
            ctx = tracer.span(name) if traced else nullcontext()
            t = time.perf_counter()
            with ctx:
                yield
            steps.append((name, time.perf_counter() - t))

        if traced:
            tracer.run = k
            tracer.install()
        try:
            outcome = job(inputs, workdir, k, span)
        finally:
            if traced:
                tracer.uninstall()
        wall = sum(d for _, d in steps)
        reps.append({"kind": "traced" if traced else "plain", "wall_s": wall,
                     "steps": steps, "outcome": outcome})
        elapsed = time.perf_counter() - t_start
        if len(reps) >= MIN_REPS[trace] and elapsed + wall > seconds:
            return reps


def _number(value):
    """JSON-safe metric value: a failed run may leave NaN behind."""
    value = float(value)
    return value if math.isfinite(value) else None


def _step_median_wall(reps) -> float:
    """Sum over the job's steps of each step's median time across reps.

    Steps are matched by name and order of occurrence, which a fixed job
    repeats exactly."""
    per_step = [[d for _, d in r["steps"]] for r in reps]
    return sum(statistics.median(col) for col in zip(*per_step))


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "coxmra" / "__init__.py").is_file():
        print(f"error: no coxmra sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    setup, job = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        setup(args.seed, Path(args.setup_probe))
        print(PROBE_MARK, repr(time.monotonic()), flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    setup_runs = [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = spans.Tracer()
    try:
        inputs = setup(args.seed, workdir)
        reps = _measure(job, inputs, workdir, args.seconds, args.trace, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # correctness: per-repetition failures plus reproducibility
    first = reps[0]["outcome"]
    attempted = sum(r["outcome"].attempted for r in reps)
    failed = sum(r["outcome"].failed for r in reps)
    failures = [m for r in reps for m in r["outcome"].failures]
    for k, r in enumerate(reps[1:], start=1):
        if r["outcome"].digest != first.digest:
            failed += 1
            failures.append(f"repetition {k}: output digest differs from repetition 0")

    plain = [r for r in reps if r["kind"] == "plain"]
    traced = [r for r in reps if r["kind"] == "traced"]
    values = {
        "setup_s": statistics.median(setup_runs),
        "wall_s": _step_median_wall(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "truth_mse": first.truth_mse,
    }
    if args.trace:
        per_rep = [spans.layer_metrics([s for s in tracer.spans if s.run == k])
                   for k, r in enumerate(reps) if r["kind"] == "traced"]
        layer, unstable = spans.combine(per_rep)
        for key in unstable:
            failed += 1
            failures.append(f"count {key} differs between traced repetitions")
        layer["predict.aloocve"] = first.extra.get("loo_aloocve", 0.0)
        layer["trace.overhead_s"] = _step_median_wall(traced) - values["wall_s"]
        values = layer
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.ndjson"
        tracer.write(spans_path)

    metrics = {m["name"]: {"value": _number(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": inputs["digests"],
        "environment": _environment(),
        "setup_runs_s": setup_runs,
        "repetitions": [{"kind": r["kind"], "wall_s": r["wall_s"], "steps": r["steps"],
                         "digest": r["outcome"].digest} for r in reps],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "results": first.extra,
        "metrics": metrics,
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(plain)} plain / {len(traced)} traced")
    for name, m in metrics.items():
        print(f"  {name:<26} {m['value']} {m['unit']}")
    print(f"  {'failed_frac':<26} {failed / attempted:.6g} ({failed}/{attempted})")
    for key, value in first.extra.items():
        print(f"  {key:<26} {value:.6g}")
    if args.trace:
        fits = values["predict.loo_fits"]
        if fits:
            print(f"  {'fit_reuse':<26} {round(values['predict.fit_reuse'] * fits)}/{fits}")
    for message in failures[:10]:
        print(f"  FAILED: {message}")
    if len(failures) > 10:
        print(f"  ... {len(failures) - 10} more failures in the record")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
