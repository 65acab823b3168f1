"""The benchmark's one command.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in this interpreter and prints, as its last line, one
JSON object: the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a traced pass (``--trace 1``).  Without ``--workload`` it
runs every workload both ways, each in a fresh interpreter;
``--selfcheck`` does that twice and compares (A/A); ``--smoke`` shrinks
everything to a sub-minute functional check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

DEFAULT_SEED = 11
#: Every workload's validity asserts must also hold on this one.
SECOND_SEED = 29
#: A traced pass whose spans explain less of a search than this is
#: reported as failed.  (ISSUE 11 hoped for 0.85 everywhere; read_hot reaches
#: ~0.83 because a sixth of a cached search is the service's own glue.)
COVERAGE_FLOOR = 0.75


def _load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as stream:
        return json.load(stream)


# -- one workload, in this interpreter ----------------------------------------


def _validity(name: str, cache, script, min_pairs: int) -> list:
    """The asserts that make a workload the workload it claims to be."""
    from bench.workloads import READBACK

    problems = []
    if name == "read_hot" and cache.hit_rate < 0.99:
        problems.append("read_hot hit ratio %.4f < 0.99" % cache.hit_rate)
    if name == "read_scan":
        if cache.hit_rate > 0.10:
            problems.append("read_scan hit ratio %.4f > 0.10" % cache.hit_rate)
        if cache.evictions == 0:
            problems.append("read_scan never evicted: the cache held the working set")
    if name == "write_read":
        pairs = sum(op.kind == READBACK for op in script)
        if pairs < min_pairs:
            problems.append("write_read ran only %d write-then-read pairs in a "
                            "pass (floor %d)" % (pairs, min_pairs))
    return problems


def _end_to_end(args, sizes, work_dir: str):
    """The untraced run: (metrics, passes, problems)."""
    import gc

    from bench import harness, verify

    calibration = [harness.calibrate()]
    bench, setups = harness.timed_setups(
        args.workload, args.seed, sizes, work_dir,
        count=1 if args.smoke else harness.SETUPS,
    )
    if args.smoke:
        measured = harness.measure(bench, 1, 1)
    else:
        measured = harness.measure(
            bench, harness.passes_for(bench.workload, args.seconds)
        )
    timed, probes, cache = measured.timed.passes, measured.probes.passes, measured.cache
    metrics = measured.metrics()
    metrics["setup_s"] = min(setups)
    metrics["peak_rss_mb"] = harness.peak_rss_mb()  # before the verify pass allocates
    calibration.append(harness.calibrate())
    resident = bench.service.cache.resident_bytes
    gc.collect()
    verdict = verify.verify(bench, [done.ops for done in timed + probes])
    bench.close()
    print("passes %d of %d ops (+%d probe passes of %d)  set-ups %s s"
          % (len(timed), len(timed[0].ops), len(probes),
             len(probes[0].ops) if probes else 0, " ".join("%.2f" % s for s in setups)))
    print("wall/pass %s s" % " ".join("%.2f" % done.wall for done in timed))
    print("cache hit ratio %.4f  evictions %d  resident %d B  verify: %d checked, "
          "%d mismatches" % (cache.hit_rate, cache.evictions, resident,
                             verdict.checked, len(verdict.mismatches)))
    print("calibration loop %.2f ms before, %.2f ms after" % tuple(calibration))
    problems = _validity(
        args.workload, cache, timed[0].ops, sizes.slots["write_read"] // 5
    )
    return metrics, timed + probes, problems + verdict.mismatches


def _traced(args, sizes, work_dir: str):
    """The traced run: (metrics, passes, problems)."""
    from bench import layers

    metrics, passes, notes = layers.traced_run(
        args.workload, args.seed, sizes, work_dir,
        os.path.join(OUT_DIR, "trace_%s.json" % args.workload),
    )
    for note in notes:
        print("NOTE: %s" % note)
    problems = []
    if metrics["server.coverage_ratio"] < COVERAGE_FLOOR:
        problems.append("coverage %.3f < %.2f: the shims have come loose from the "
                        "search path" % (metrics["server.coverage_ratio"], COVERAGE_FLOOR))
    return metrics, passes, problems


def run_workload(args) -> int:
    from bench import harness
    from bench.workloads import FULL, SMOKE, WORKLOADS

    contract = _load_contract()
    sizes = SMOKE if args.smoke else FULL
    if args.workload not in WORKLOADS:
        raise SystemExit("unknown workload %r" % args.workload)
    work_dir = os.path.join(OUT_DIR, "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    print("workload %s  seed %d  entries %d  slots/pass %d  probe pairs %d  "
          "page_size %d  buffer_pages %d  trace %d"
          % (args.workload, args.seed, sizes.entries, sizes.slots[args.workload],
             sizes.probe_pairs, harness.PAGE_SIZE, harness.BUFFER_PAGES, args.trace))
    try:
        metrics, passes, problems = (_traced if args.trace else _end_to_end)(
            args, sizes, work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    wanted = contract["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}
    if set(units) != set(metrics):
        raise SystemExit(
            "BENCHMARK.json and the run disagree on metric names: %s"
            % sorted(set(units) ^ set(metrics))
        )
    bad = [name for name, value in metrics.items() if not math.isfinite(value)]
    if bad:
        problems.append("non-finite metrics: %s" % ", ".join(bad))
    for name in units:
        print("%-32s %16.6f %s" % (name, metrics[name], units[name]))
    for problem in (problems + [e for done in passes for e in done.errors])[:10]:
        print("FAILED: %s" % problem)
    attempted = sum(len(done.ops) for done in passes)
    failed = min(attempted, sum(len(done.errors) for done in passes) + len(problems))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


# -- every workload, each in a fresh interpreter ------------------------------


def _child(workload: str, trace: int, args) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        raise SystemExit("%s (trace %d) exited %d" % (workload, trace, done.returncode))
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def run_all(args, traces=(0, 1)) -> dict:
    """{(workload, trace): result}, every workload in a fresh interpreter."""
    results = {}
    for workload in [w["name"] for w in _load_contract()["workloads"]]:
        for trace in traces:
            print("== %s, seed %d, trace %d" % (workload, args.seed, trace))
            results[workload, trace] = _child(workload, trace, args)
    print("== summary, seed %d" % args.seed)
    for (workload, trace), result in results.items():
        print("%-14s trace %d  correct %-5s attempted %6d  failed %d"
              % (workload, trace, result["correct"], result["attempted"],
                 result["failed"]))
    return results


def selfcheck(args) -> int:
    """A/A: the full set twice on the same code and seed.  Fails when an
    end-to-end metric moves by more than its own bound, when a count that
    should repeat exactly does not, or when a
    workload's validity asserts do not hold on ``SECOND_SEED`` too."""
    from bench.layers import EXACT

    contract = _load_contract()
    bounds = {metric["name"]: metric["bound"] for metric in contract["end_to_end"]}
    first, second = run_all(args), run_all(args)
    args.seed = SECOND_SEED
    other_seed = run_all(args, traces=(0,))
    problems = []
    print("== A/A spread")
    for (workload, trace), before in first.items():
        after = second[workload, trace]
        for name, cell in before["metrics"].items():
            a, b = cell["value"], after["metrics"][name]["value"]
            moved = abs(b - a) / abs(a) if a else float(b != a)
            if trace == 0:
                verdict = "ok" if moved <= bounds[name] else "OVER BOUND"
                print("%-14s %-28s %12.4f %12.4f  moved %5.1f%%  bound %4.0f%%  %s"
                      % (workload, name, a, b, moved * 100, bounds[name] * 100, verdict))
                if moved > bounds[name]:
                    problems.append("%s %s moved %.1f%%" % (workload, name, moved * 100))
            elif name in EXACT and a != b:
                problems.append("%s %s is not exact: %r vs %r" % (workload, name, a, b))
    correct = all(
        r["correct"] for run in (first, second, other_seed) for r in run.values()
    )
    if not correct:
        problems.append("a run reported correct=false")
    for problem in problems:
        print("SELFCHECK FAILED: %s" % problem)
    print("selfcheck %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run just this workload, in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="2 000 entries, one short pass per workload")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the full set twice and compare (A/A)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("bench: %s/repro is missing; the benchmark measures the program "
              "in this checkout and cannot run without it" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    if args.seconds is None:
        args.seconds = float(_load_contract()["run_seconds"])
    if args.selfcheck:
        return selfcheck(args)
    if args.workload:
        return run_workload(args)
    results = run_all(args)
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
