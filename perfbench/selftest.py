"""Self-test of the benchmark at reduced sizes.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It checks that

* the metric names and units printed by untraced and traced runs of every
  workload are exactly those of BENCHMARK.json, with every answer right;
* the reference clock of speed.py samples the machine's speed while a
  call runs and counts twice the work as about twice the time;
* a deliberately wrong answer is counted as a failed job;
* a child that is killed before it finishes counts its unfinished jobs
  as failed;
* in a directory that holds only BENCHMARK.json and the benchmark, the
  runner exits non-zero without printing a result.

Exits 0 when every check passes.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile

import run
import speed
import tracer

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
FAILURES: list[str] = []
SETUP = {"setup_s": 0.1, "setup_wall": 0.1}


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def small_args(workload: str, trace: int, seconds: float = 0.5):
    return argparse.Namespace(workload=workload, seed=7, seconds=seconds,
                              trace=trace, small=True)


def run_result(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", str(trace), "--small"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_metric_names() -> None:
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    check(per_layer == {n: tracer.metric_unit(n)
                        for n in tracer.metric_names()},
          "BENCHMARK.json per_layer matches the hooks of tracer.py")
    check([w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py")
    mapped = {w for h in tracer.HOOKS for w in h.works_on + h.idle_on}
    check(mapped <= set(run.WORKLOADS), "layer map names known workloads")
    end_to_end = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for w in run.WORKLOADS:
        for trace, want in ((0, end_to_end), (1, per_layer)):
            res = run_result(w, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(res["correct"] and res["failed"] == 0 and got == want,
                  f"{w} --trace {trace}: correct, metric names and units")


def test_reference_clock() -> None:
    sampler = speed.Sampler()
    speed.warm_up()

    def work(n):
        return lambda: sum(speed.kernel() for _ in range(n))

    _, _, one, ticks = sampler.measure(work(150))
    _, _, two, _ = sampler.measure(work(300))
    check(ticks > 0 and 1.6 < two / one < 2.5,
          f"reference clock: {ticks} samples, twice the work takes "
          f"{two / one:.2f} times as long")


def test_wrong_answer_counts() -> None:
    import cupone.linalg as L
    import cupone.model as M
    import workloads

    jobs = workloads.build("z_invariants", 7, "", small=True)
    real = M.kappa

    def wrong_kappa(stage):
        return M.KappaInvariant(stage.n, L.AbelianInvariants(0, (5,)))

    M.kappa = wrong_kappa
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            for j in jobs:
                run.run_job(j, "timed")
    finally:
        M.kappa = real
    lines = ([{"plan": [j.name for j in jobs]}]
             + [json.loads(x) for x in out.getvalue().splitlines()]
             + [{"done": True, "rss_kb": 1024}])
    res, _ = run.summarize(small_args("z_invariants", 0), lines, 0, [SETUP])
    check(not res["correct"] and res["failed"] >= 1,
          f"a wrong kappa is counted as failed ({res['failed']} of "
          f"{res['attempted']} jobs)")


def test_killed_child_counts() -> None:
    args = small_args("models", 0, seconds=5)
    lines, code = run.spawn(args, False, timeout=1.0)
    res, _ = run.summarize(args, lines, code, [SETUP])
    check(code is None and not res["correct"] and res["failed"] >= 1,
          f"a killed child counts unfinished jobs as failed "
          f"({res['failed']} of {res['attempted']})")


def test_no_sources() -> None:
    tmp_root = run.ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(dir=tmp_root)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(run.ROOT / path, f"{bare}/{path}",
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            BENCH["command"] + ["--workload", "zp_bar", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        check(out.returncode != 0 and not out.stdout.strip(),
              f"without sources: exit {out.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    test_metric_names()
    test_reference_clock()
    test_wrong_answer_counts()
    test_killed_child_counts()
    test_no_sources()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
