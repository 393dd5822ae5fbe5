"""Benchmark of stefanlab: three workloads, one command.

    python3 bench/run.py --workload {hum,observability,lab_sweep} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; stefanlab is imported from ./src.
The workload's fixed batch is repeated in whole rounds until the next round
would end after S seconds.  Every operation is timed on its own, followed by
the reference kernel (bench/refkernel.py); the batch is reported in seconds
and in kernel units, which cancel host-speed drift.  Outputs are checked
after each round, outside the timed region.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  Details go to standard error and to
bench/out/result-<workload>-trace<t>.json; a traced run also writes its
spans to bench/out/spans-<workload>.jsonl.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools must be pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def _import_program() -> None:
    """Import stefanlab from the checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import stefanlab
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import stefanlab from {src}: {exc}") from exc
    if Path(stefanlab.__file__).resolve().parent != (src / "stefanlab").resolve():
        raise SystemExit(f"bench: stefanlab was imported from {stefanlab.__file__}, not {src}")


def _parse(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("hum", "observability", "lab_sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set up, print 'ready' and exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up time


def _probe_main(args) -> int:
    """Child process: import, build inputs, warm up, then report ready."""
    import workloads

    work_dir = OUT / f"probe-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(work_dir))
        workload.warm_up()
        print("ready", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


def _time_setup(args) -> float:
    """Seconds from starting a fresh process until it is ready to time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if code != 0 or line.strip() != "ready":
        raise SystemExit(f"bench: set-up probe exited {code} without getting ready")
    return elapsed


# ---------------------------------------------------------------------------
# timed rounds


def _measure(workload, seconds: float, tracer, probe=None):
    """Run whole rounds of the batch; returns per-round records.

    With a tracer, odd rounds are traced and even rounds are not, so the
    tracing overhead is measured under the same host drift.  `probe`, when
    given, times one set-up in a fresh process; it runs between rounds at
    evenly spaced points of the run, outside the measured time, so the
    set-up samples see the same host drift as the rounds.
    """
    from refkernel import time_kernel

    import tracing

    ops = workload.ops()
    plain = {name: [] for name, _ in ops}     # name -> seconds of each round
    traced = {name: [] for name, _ in ops}
    kernels, layers, failures = [], [], {}
    attempted = failed = 0

    def sample_kernel():
        kernels.extend(time_kernel() for _ in range(workload.KERNEL_REPEATS))

    sample_kernel()
    setup = []
    marks = [k * seconds / (SETUP_PROBES - 1) for k in range(1, SETUP_PROBES - 1)] if probe else []
    paused = 0.0
    start = time.perf_counter()
    longest = 0.0
    rnd = 0
    min_rounds = 2 if tracer else 1
    while True:
        tracing_round = tracer is not None and rnd % 2 == 1
        if tracing_round:
            tracer.round = rnd
            tracer.install()
        round_start = time.perf_counter()
        outputs, errors, timings = {}, {}, []
        for name, fn in ops:
            t0 = time.perf_counter()
            try:
                outputs[name] = fn(outputs)
            except Exception as exc:  # an operation that raises is a failed operation
                errors[name] = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            timings.append((name, elapsed))
            sample_kernel()
        if tracing_round:
            tracer.uninstall()
        extras = {}
        units = workload.check(outputs, errors, extras)
        attempted += len(units)
        for unit, messages in units.items():
            if messages:
                failed += 1
                failures.setdefault(unit, messages)
        into = traced if tracing_round else plain
        for name, elapsed in timings:
            into[name].append(elapsed)
        if tracing_round:
            spans = [s for s in tracer.spans if s.round == rnd]
            layers.append((tracing.layer_metrics(spans, extras), tracing.layer_shares(spans)))
        longest = max(longest, time.perf_counter() - round_start)
        rnd += 1
        if marks and time.perf_counter() - start - paused >= marks[0]:
            marks.pop(0)
            probe_start = time.perf_counter()
            setup.append(probe())
            paused += time.perf_counter() - probe_start
        if rnd >= min_rounds and time.perf_counter() - start - paused + longest > seconds:
            break
    while probe and len(setup) < SETUP_PROBES - 1:
        setup.append(probe())
    finish_start = time.perf_counter()
    finish = workload.finish()
    finish_s = time.perf_counter() - finish_start
    attempted += len(finish)
    for unit, messages in finish.items():
        if messages:
            failed += 1
            failures.setdefault(unit, messages)
    return {"rounds": rnd, "plain": plain, "traced": traced, "kernels": kernels,
            "layers": layers, "attempted": attempted, "failed": failed,
            "failures": failures, "finish_s": finish_s, "setup": setup}


def _batch(samples: dict, kernel_mean: float) -> tuple[float, float]:
    """(seconds, ref units) of the batch: the mean over rounds of its time.

    Host speed flips between two modes every fraction of a second, so a
    long operation is best compared with the kernel unit over the whole
    run, not with the samples next to it; means, not medians, because the
    median of a two-mode mixture jumps between the modes.
    """
    rounds = len(next(iter(samples.values())))
    batch_s = sum(t for v in samples.values() for t in v) / rounds
    return batch_s, batch_s / kernel_mean


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _layer_summary(layers):
    """Median of each time over traced rounds; counts must repeat exactly."""
    import tracing

    values, problems = {}, []
    for name, (unit, _, _) in tracing.PER_LAYER.items():
        series = [metrics[name] for metrics, _ in layers]
        if unit != "s" and len(set(series)) != 1:
            problems.append(f"{name} differs between traced rounds: {series}")
        values[name] = {"value": statistics.median(series), "unit": unit}
    shares = {}
    for _, per_layer in layers:
        for layer, seconds in per_layer.items():
            shares.setdefault(layer, []).append(seconds)
    total = sum(statistics.median(v) for v in shares.values())
    share = {k: statistics.median(v) / total for k, v in sorted(shares.items())} if total else {}
    return values, problems, share


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    if args.setup_probe:
        return _probe_main(args)
    if args.seconds is None or not args.seconds > 0:
        raise SystemExit("bench: --seconds is required and must be positive")

    import tracing
    import workloads
    from refkernel import kernel_unit

    probe = None if args.trace else partial(_time_setup, args)
    setup = [probe()] if probe else []
    OUT.mkdir(parents=True, exist_ok=True)
    work_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(work_dir))
        workload.warm_up()
        tracer = tracing.Tracer() if args.trace else None
        run = _measure(workload, args.seconds, tracer, probe)
        setup += run["setup"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    kernel_mean = kernel_unit(run["kernels"])
    batch_s, batch_ref = _batch(run["plain"], kernel_mean)
    correct = run["failed"] == 0
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": run["rounds"], "attempted": run["attempted"],
        "failed": run["failed"], "failures": run["failures"],
        "batch_s": batch_s, "batch_ref": batch_ref,
        "kernel_mean_s": kernel_mean, "kernel_runs": len(run["kernels"]),
        "kernel_share": sum(run["kernels"]) / (sum(run["kernels"]) + sum(
            t for v in (*run["plain"].values(), *run["traced"].values()) for t in v)),
        "setup_samples_s": setup,
        "untimed_finish_s": run["finish_s"],
        "operation_mean_s": {name: statistics.fmean(v)
                             for name, v in run["plain"].items()},
        "samples": run["plain"],
        "kernel_samples_s": run["kernels"],
    }
    if args.trace:
        layers, problems, share = _layer_summary(run["layers"])
        traced_s, traced_ref = _batch(run["traced"], kernel_mean)
        report.update(layers=layers, layer_share=share, count_problems=problems,
                      overhead_s=traced_s - batch_s, overhead_ref=traced_ref - batch_ref)
        tracer.write(str(OUT / f"spans-{args.workload}.jsonl"))
        correct = correct and not problems
        metrics = layers
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "batch_ref": {"value": batch_ref, "unit": "ref"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }
    report["metrics"] = metrics
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    print(f"bench {args.workload} seed {args.seed}: {run['rounds']} rounds, "
          f"batch {batch_s:.3f} s = {batch_ref:.1f} ref, kernel {kernel_mean * 1e3:.3f} ms, "
          f"{run['failed']}/{run['attempted']} failed", file=sys.stderr)
    for unit, messages in run["failures"].items():
        print(f"  FAILED {unit}: {'; '.join(messages)}", file=sys.stderr)
    if args.trace:
        print(f"  tracing overhead {report['overhead_s']:+.4f} s "
              f"({report['overhead_ref']:+.2f} ref)", file=sys.stderr)
        for message in report["count_problems"]:
            print(f"  {message}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
