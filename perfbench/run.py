"""The vidcorr benchmark: one command, two workloads.

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 45 --trace 0

Workloads (closed loops, one client, one process each; BLAS threads are
left at the program's default):

  train-desk  harness.train() with criterion 7's DESK_CONFIG on a
              generated 8-video corpus at 32 px, 6 epochs per call
  infer       one op is the two inference commands back to back:
              harness.evaluate() on a generated 4-video val split at
              32 px (8x8 grid, d=32, radius 40: whole-frame windows),
              then harness.propagate_and_save() on one video of a
              generated 3-video split at 64 px (16x16 grid, d=32,
              radius 4: windows of about a third of the grid)

Inference uses top_k 5, context 10 and a checkpoint of the seed's
freshly initialized student, so its inputs do not depend on training
code.

Set-up runs SETUP_REPS times, each in a fresh worker process (process
start, imports, data generation, checkpoint, and a warm-up of one epoch
of training or one untimed evaluate() call); ``setup_s`` is the median, and
the last worker goes on to measure. The generated inputs of every
set-up must be byte-identical.

With --trace 0 the last stdout line carries the end-to-end metrics:

  setup_s       median set-up time, s
  peak_rss_mb   peak resident memory of the measuring worker, MB
  items_per_s   clips trained (train-desk) or frames propagated (infer)
                per second of train() calls or infer ops

Both workloads are batch jobs, so their user-facing figure is work per
second over the whole run, which also averages over the host's speed
changes. The lines before it name the same figures per workload, the
ungated median and p90 of a unit of work (a train step between progress
callbacks, or an infer op) with their sample counts, each infer part's
own figures, and the machine facts. With --trace 1 the worker measures
for --seconds, every other call with spans wrapped around calls into
vidcorr's modules (see tracing.py), and reports per-layer metrics plus
the tracing overhead (traced over untraced median). Spans and facts are
written to .perfbench/reports/.

Exit status: 0 with a result line; 1 when an output check failed (the
result line then says correct: false); 2 when no result could be made,
for example outside a vidcorr checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
WORKLOADS = ("train-desk", "infer")
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s"}
# the names the metrics go by on each workload, for the readable lines:
# metric -> (name, scale, unit)
ALIASES = {
    "train-desk": {"op_ms.p50": ("train.step_ms.p50", 1, "ms"),
                   "items_per_s": ("train.clips_per_s", 1, "1/s")},
    "infer": {"op_ms.p50": ("infer.op_s.p50", 1e-3, "s"),
              "items_per_s": ("infer.frames_per_s", 1, "1/s")},
}
# each infer part's own figures: part -> name of its median time
PART_NAMES = {"eval": "eval.evaluate_s.p50", "propagate": "propagate.video_s.p50"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def percentile_beyond(values, q):
    """q-quantile of values and how many samples lie above it."""
    value = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return value, sum(v > value for v in values)


def runnable_others(samples=10, interval=0.05):
    """Mean count of other runnable tasks, from /proc/loadavg's
    instantaneous running-task field (this process is one of them)."""
    counts = []
    for _ in range(samples):
        try:
            field = Path("/proc/loadavg").read_text().split()[3]
        except OSError:
            return None
        counts.append(int(field.split("/")[0]) - 1)
        time.sleep(interval)
    return statistics.mean(counts)


def run_worker(args, work, measure):
    """Start one worker; return (seconds until READY, RESULT or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    if measure:
        cmd.append("--measure")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready is None or (measure and result is None):
        fail(f"worker for {args.workload} exited with status {proc.returncode}")
    return ready, result


def input_hash(directory):
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(directory)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def end_to_end(args, setup_times, result):
    """The gated metrics, and readable lines that also carry the
    ungated timings: the median and p90 of a unit of work, and each
    infer part's own figures."""
    units = result["unit_seconds"]
    out = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": result["peak_rss_mb"],
        "items_per_s": sum(result["call_items"]) / sum(result["call_seconds"]),
    }
    lines = []
    for key, value in out.items():
        name, scale, unit = ALIASES[args.workload].get(key, (key, 1, E2E_UNITS[key]))
        lines.append(f"{name} = {value * scale:.6g} {unit}")
    name, scale, unit = ALIASES[args.workload]["op_ms.p50"]
    lines.append(f"{name} = {statistics.median(units) * 1e3 * scale:.6g} {unit} "
                 f"(n={len(units)} {result['unit']}s)")
    if len(units) >= 100:
        p90, beyond = percentile_beyond(units, 90)
        lines.append(f"{name.replace('p50', 'p90')} = {p90 * 1e3 * scale:.6g} {unit} "
                     f"(n={len(units)}, {beyond} beyond)")
    for part, rows in result["parts"].items():
        seconds = [r[0] for r in rows]
        lines.append(f"{PART_NAMES[part]} = {statistics.median(seconds):.6g} s")
        lines.append(f"{part}.frames_per_s = {sum(r[1] for r in rows) / sum(seconds):.6g} 1/s")
    return out, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/vidcorr/harness/__init__.py", "tests/reference_propagation.py"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} is missing; run from the root of a vidcorr checkout")

    base = ROOT / ".perfbench"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    load_before = os.getloadavg()
    others = runnable_others()
    busy = others is not None and others >= 0.5
    if busy:
        print(f"perfbench: machine busy at start ({others:.1f} other runnable tasks, "
              f"load {load_before[0]:.2f}); figures may be inflated", file=sys.stderr)
    try:
        setup_times, result = [], None
        for rep in range(SETUP_REPS):
            ready, result = run_worker(args, work / f"rep{rep}", rep == SETUP_REPS - 1)
            setup_times.append(ready)
        hashes = {input_hash(work / f"rep{rep}" / "inputs") for rep in range(SETUP_REPS)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_after = os.getloadavg()

    problems = list(result["problems"])
    if len(hashes) != 1:
        problems.append("the same seed generated different inputs across set-ups")
    correct = not problems
    e2e, lines = end_to_end(args, setup_times, result)
    if args.trace:
        metrics = result["per_layer"]
        lines += [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    facts = dict(result["facts"], loadavg_before=load_before, loadavg_after=load_after,
                 runnable_others_at_start=others, busy_at_start=busy)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "problems": problems,
              "attempted": result["attempted"], "failed": result["failed"],
              "setup_s": setup_times, "end_to_end": e2e, "metrics": metrics,
              "facts": facts, "setup_ms": result["setup_ms"], "import_s": result["import_s"],
              "unit_seconds": result["unit_seconds"], "call_seconds": result["call_seconds"]}
    if args.trace:
        report.update(spans=result["spans"], counts=result["counts"],
                      self_time_residual_s=result["self_time_residual_s"])
    reports = base / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report))

    print("machine " + json.dumps(facts))
    for line in lines:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
