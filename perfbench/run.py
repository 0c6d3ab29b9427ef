"""Benchmark runner for cupone.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; cupone is imported from ``src/``.
Workloads (see BENCHMARK.json and workloads.py) are closed loops with one
client: jobs run one after another on one thread.  Each run starts a
fresh child process for the workload, so a crash or a timeout there
cannot take this process down; jobs the child did not finish count as
failed.  Set-up (interpreter start, ``import cupone``, input generation)
is measured in that child and in ``SETUP_PROBES`` more children that stop
after set-up; ``setup_s`` is the median.

Times are in reference seconds (speed.py): wall time with the speed of
the shared machine, sampled by a fixed reference kernel while the code
runs, divided out.  Raw wall times go to the metadata line.

Every child first runs one warm-up round of the job list, which fills
cupone's memo caches and gives the reference answers.  Every job of
every round is checked against its oracle, outside the timed region.

Untraced (``--trace 0``): after the warm-up the child runs at least one
full round, then keeps starting jobs until S seconds have passed.
``norm_wall_s`` adds up, over the jobs of one round, the median time of
each job.  ``peak_rss_mb`` is the child's peak RSS.

Traced (``--trace 1``): after the warm-up the child runs one untraced
round, installs the hooks of tracer.py and runs whole traced rounds
until S seconds have passed, on the plain wall clock (no kernel samples
inside the spans).  Per-layer metrics are per traced round;
``trace.overhead_ratio`` is the median traced round time over the
untraced round time.  Traced answers must equal the warm-up ones, and a
hook that the layer map says works on the workload must record calls.

The last line of stdout is the result object; the line before it holds
run metadata (git sha, Python, nproc, seed, src/ line count, per-job
medians, raw wall times), which is not a metric.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("z_invariants", "zp_bar", "models")
SETUP_PROBES = 8
RUN_LIMIT_S = 170.0  # the whole run, set-up probes included


# ---------------------------------------------------------------------------
# child process: set-up, jobs, optional tracing

def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_job(job, phase: str, sampler=None) -> tuple:
    """Time one job, check its answer, print a line; (answer, errors, wall).

    With a sampler the job is timed in reference seconds too (``ref``).
    """
    ref = ticks = None
    t0 = time.perf_counter()
    try:
        if sampler is None:
            result = job.run()
        else:
            result, wall, ref, ticks = sampler.measure(job.run)
        error = None
    except Exception as e:  # a failing job is counted, the loop goes on
        result, error = None, f"{type(e).__name__}: {e}"
    if sampler is None or error is not None:
        wall = time.perf_counter() - t0
    if error is None:
        try:
            answer, errors = job.check(result)
        except Exception as e:
            answer, errors = None, [f"check raised {type(e).__name__}: {e}"]
    else:
        answer, errors = None, [error]
    emit({"job": job.name, "phase": phase, "wall": wall, "ref": ref,
          "ticks": ticks, "errors": errors})
    return answer, errors, wall


def child(args) -> None:
    # Interpreter start and this file's imports, counted into set-up at the
    # speed the first kernel run shows; the kernel's warm-up is not.
    head = time.perf_counter() - args.spawned_at
    sampler = speed.Sampler(interval=0.01)
    speed.warm_up()

    def setup():
        sys.path.insert(0, str(SRC))
        import workloads  # imports cupone from src/
        return workloads.build(args.workload, args.seed, args.workdir,
                               args.small)

    jobs, wall, ref, _ = sampler.measure(setup, head=head)
    emit({"setup_s": ref, "setup_wall": wall,
          "plan": [j.name for j in jobs]})
    if args.setup_only:
        return
    sampler.interval = 0.03
    # The warm-up round fills cupone's memo caches and gives the reference
    # answers; it is checked but not part of norm_wall_s.
    reference = {j.name: run_job(j, "warmup", sampler)[0] for j in jobs}
    if args.trace:
        traced_rounds(jobs, reference, args)
    else:
        timed_rounds(jobs, args.seconds, sampler)


def timed_rounds(jobs, seconds: float, sampler) -> None:
    start = time.perf_counter()
    i = 0
    while i < len(jobs) or time.perf_counter() - start < seconds:
        run_job(jobs[i % len(jobs)], "timed", sampler)
        i += 1
    emit({"done": True, "rss_kb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss})


def traced_rounds(jobs, reference: dict, args) -> None:
    from tracer import Tracer

    start = time.perf_counter()
    untraced = sum(run_job(j, "untraced")[2] for j in jobs)
    tracer = Tracer()
    tracer.install()
    round_walls = []
    mismatches = set()
    try:
        while not round_walls or time.perf_counter() - start < args.seconds:
            t0 = time.perf_counter()
            for j in jobs:
                answer, errors, _ = run_job(j, "traced")
                if not errors and answer != reference[j.name]:
                    mismatches.add(j.name)
            round_walls.append(time.perf_counter() - t0)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(len(round_walls))
    metrics["trace.overhead_ratio"] = statistics.median(round_walls) / untraced
    emit({"done": True, "per_layer": metrics,
          "silent_hooks": tracer.silent_hooks(args.workload),
          "busy_idle_hooks": tracer.busy_idle_hooks(args.workload),
          "mismatches": sorted(mismatches)})


# ---------------------------------------------------------------------------
# parent process

def spawn(args, setup_only: bool, timeout: float) -> tuple[list, int | None]:
    """Run one child; returns its JSON lines and exit code (None: killed)."""
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as workdir:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--spawned-at", repr(time.perf_counter())]
        if setup_only:
            cmd.append("--setup-only")
        if args.small:
            cmd.append("--small")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=max(timeout, 1.0))
            out, code = proc.stdout, proc.returncode
        except subprocess.TimeoutExpired as e:  # run() killed and reaped it
            out, code = e.stdout or "", None
            if isinstance(out, bytes):
                out = out.decode(errors="replace")
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:
            pass
    return lines, code


def metadata(args) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = 0
    for path in SRC.rglob("*.py"):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {"git_sha": sha, "python": sys.version.split()[0],
            "nproc": os.cpu_count(), "seed": args.seed,
            "workload": args.workload, "src_lines": src_lines}


def summarize(args, lines: list, code, setups: list) -> tuple[dict, dict]:
    plan = next((x["plan"] for x in lines if "plan" in x), [])
    jobs = [x for x in lines if "job" in x]
    done = next((x for x in lines if x.get("done")), None)
    problems = [f"{x['job']}: {e}" for x in jobs for e in x["errors"]]
    failed = sum(1 for x in jobs if x["errors"])
    attempted = len(jobs)
    if done is None:
        # Killed, crashed or timed out: the rest of the current round (or
        # the whole plan when set-up never finished) counts as failed.
        unfinished = len(plan) - len(jobs) % len(plan) if plan else 1
        attempted += unfinished
        failed += unfinished
        problems.append(f"child ended early (exit {code}); "
                        f"{unfinished} unfinished jobs counted as failed")
    per_job: dict = {}
    for x in jobs:
        per_job.setdefault(x["phase"], {}).setdefault(x["job"], []).append(x)
    medians = {phase: {name: _job_medians(v) for name, v in byjob.items()}
               for phase, byjob in per_job.items()}
    if args.trace:
        layer = (done or {}).get("per_layer", {})
        silent = (done or {}).get("silent_hooks", [])
        mismatched = (done or {}).get("mismatches", [])
        problems += [f"hook {h} recorded no calls" for h in silent]
        for h in (done or {}).get("busy_idle_hooks", []):
            print(f"perfbench: layer map error: {h} was predicted to make "
                  f"no call on {args.workload}", file=sys.stderr)
        problems += [f"{j}: traced answer differs from untraced"
                     for j in mismatched]
        from tracer import metric_names, metric_unit
        metrics = {n: {"value": layer[n], "unit": metric_unit(n)}
                   for n in metric_names() if n in layer}
        correct = not problems and len(metrics) == len(metric_names())
    else:
        metrics = {}
        if done is not None and setups:
            timed = medians["timed"].values()
            metrics = {
                "norm_wall_s": sum(m.get("ref_s", m["wall_s"])
                                   for m in timed),
                "setup_s": statistics.median(x["setup_s"] for x in setups),
                "peak_rss_mb": done["rss_kb"] / 1024.0,
            }
            metrics = {k: {"value": v, "unit": "MB" if k == "peak_rss_mb"
                           else "s"} for k, v in metrics.items()}
        correct = not problems and bool(metrics)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    setup_wall = [x["setup_wall"] for x in setups]
    return result, {"jobs": medians, "setup_wall_s": (
        statistics.median(setup_wall) if setup_wall else None)}


def _job_medians(runs: list) -> dict:
    out = {"runs": len(runs),
           "wall_s": statistics.median(x["wall"] for x in runs)}
    refs = [x["ref"] for x in runs if x["ref"] is not None]
    if refs:
        out["ref_s"] = statistics.median(refs)
        out["ticks"] = statistics.median(x["ticks"] for x in runs)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "cupone" / "__init__.py").is_file():
        print(f"perfbench: no cupone sources under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        child(args)
        return 0
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    for _ in range(SETUP_PROBES):
        lines, _ = spawn(args, True, deadline - time.monotonic())
        setups += [x for x in lines if "setup_s" in x]
    lines, code = spawn(args, False, deadline - time.monotonic())
    setups += [x for x in lines if "setup_s" in x]
    result, detail = summarize(args, lines, code, setups)
    print(json.dumps({"meta": {**metadata(args), **detail}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
