#!/usr/bin/env python3
"""Performance-trend tracking and regression gate for bench_engine_scaling.

Stdlib only. Three subcommands around the driver's trailing JSON line
(the `worker_sweep` rows are the tracked series):

  append   run the bench N times (or read saved JSON lines), take the
           per-worker-count median wall and the deterministic counters of
           the 1-worker row, and append one dated record to the trend
           file (BENCH_trend.json, a JSON array).
  seed     same measurement, written as the committed baseline
           (BENCH_10.json) that `gate` compares against.
  gate     same measurement, compared against the baseline: exits 1 if
           any counter of the 1-worker row (Z3 calls, Unknown verdicts,
           GIL commands) differs from the baseline, or if any worker
           count's median wall is more than --tolerance (default 100%)
           above it. The counters are exact and machine-independent, so
           they are the real gate; the wall, recorded on whatever machine
           seeded the baseline, is only a loose trend check.
           Faster-than-baseline wall is never an error; a counter change
           in either direction is (re-seed when it is intended).

Examples:
  scripts/bench_trend.py seed   --bench build/bench/bench_engine_scaling
  scripts/bench_trend.py append --bench build/bench/bench_engine_scaling
  scripts/bench_trend.py gate   --bench build/bench/bench_engine_scaling
  scripts/bench_trend.py gate   --from-json run1.json run2.json run3.json
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys

DEFAULT_BENCH = "build/bench/bench_engine_scaling"
DEFAULT_TREND = "BENCH_trend.json"
DEFAULT_BASELINE = "BENCH_10.json"


def run_bench_once(bench):
    """Runs the driver and returns its parsed trailing JSON line."""
    proc = subprocess.run(
        [bench, "--benchmark_filter=NONE", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=True,
        text=True,
    )
    last = proc.stdout.strip().splitlines()[-1]
    return json.loads(last)


def load_json_line(path):
    with open(path) as f:
        text = f.read().strip()
    # Accept either a bare JSON object or full driver stdout.
    return json.loads(text.splitlines()[-1])


def collect(args):
    """Returns a list of parsed bench JSON objects per --from-json/--runs."""
    if args.from_json:
        return [load_json_line(p) for p in args.from_json]
    return [run_bench_once(args.bench) for _ in range(args.runs)]


# Deterministic per-run counters of the 1-worker sweep row: the same on
# every run and every machine, so the gate compares them exactly.
COUNTERS = ("z3_calls", "z3_unknown", "gil_cmds")


def medians(results):
    """Per-worker-count median wall over the collected runs."""
    by_workers = {}
    for r in results:
        if r.get("bench") != "engine_scaling":
            sys.exit(f"error: expected engine_scaling JSON, got {r.get('bench')!r}")
        for row in r["worker_sweep"]:
            by_workers.setdefault(str(row["workers"]), []).append(row["time_s"])
    return {w: round(statistics.median(v), 6) for w, v in sorted(by_workers.items(), key=lambda kv: int(kv[0]))}


def counters(results):
    """The COUNTERS of the 1-worker row ({} when the runs lack them);
    exits if two runs disagree, since they must not."""
    seen = None
    for r in results:
        row = next((x for x in r["worker_sweep"] if x["workers"] == 1), {})
        cur = {k: row[k] for k in COUNTERS if k in row}
        if seen is not None and cur != seen:
            sys.exit(f"error: 1-worker counters differ between runs: "
                     f"{seen} vs {cur}")
        seen = cur
    return seen or {}


def git_head():
    """HEAD's short hash, with "-dirty" when tracked files differ from it
    (a baseline seeded from uncommitted work is not HEAD's)."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True, text=True,
        ).stdout.strip()
        dirty = subprocess.run(["git", "diff", "--quiet", "HEAD"],
                               stderr=subprocess.DEVNULL).returncode != 0
        return head + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return None


def record(args, results):
    r0 = results[0]
    return {
        "bench": "engine_scaling",
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": git_head(),
        "runs": len(results),
        "paths": r0.get("paths"),
        "counters_w1": counters(results),
        "wall_s": medians(results),
    }


def cmd_append(args):
    rec = record(args, collect(args))
    try:
        with open(args.trend) as f:
            trend = json.load(f)
        if not isinstance(trend, list):
            sys.exit(f"error: {args.trend} is not a JSON array")
    except FileNotFoundError:
        trend = []
    trend.append(rec)
    with open(args.trend, "w") as f:
        json.dump(trend, f, indent=1)
        f.write("\n")
    print(f"appended run {len(trend)} to {args.trend}: wall_s={rec['wall_s']}")


def cmd_seed(args):
    rec = record(args, collect(args))
    with open(args.out, "w") as f:
        json.dump(rec, f, indent=1)
        f.write("\n")
    print(f"seeded baseline {args.out}: counters_w1={rec['counters_w1']} "
          f"wall_s={rec['wall_s']}")


def cmd_gate(args):
    with open(args.baseline) as f:
        base = json.load(f)
    results = collect(args)
    cur_counters = counters(results)
    base_counters = base.get("counters_w1", {})
    mismatched = []
    for name in COUNTERS:
        want, got = base_counters.get(name), cur_counters.get(name)
        verdict = "ok" if want is not None and want == got else "MISMATCH"
        print(f"workers=1 {name}: baseline {want}, current {got} {verdict}")
        if verdict != "ok":
            mismatched.append(name)
    cur = medians(results)
    failed = []
    for workers, base_wall in base["wall_s"].items():
        if workers not in cur:
            print(f"warning: baseline worker count {workers} missing from current run")
            continue
        ratio = cur[workers] / base_wall if base_wall > 0 else 1.0
        verdict = "REGRESSED" if ratio > 1 + args.tolerance else "ok"
        print(f"workers={workers}: baseline {base_wall:.3f}s, current "
              f"{cur[workers]:.3f}s ({ratio:.1%} of baseline) {verdict}")
        if verdict == "REGRESSED":
            failed.append(workers)
    if mismatched:
        print(f"FAIL: 1-worker counters {', '.join(mismatched)} differ from "
              f"{args.baseline} (re-seed with 'bench_trend.py seed' if "
              f"intentional)")
    if failed:
        print(f"FAIL: wall regression > {args.tolerance:.0%} at workers "
              f"{', '.join(failed)} (baseline {args.baseline}; re-seed with "
              f"'bench_trend.py seed' if intentional)")
    if mismatched or failed:
        sys.exit(1)
    print(f"PASS: 1-worker counters match and all worker counts within "
          f"{args.tolerance:.0%} of {args.baseline}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--bench", default=DEFAULT_BENCH,
                       help=f"bench_engine_scaling binary (default {DEFAULT_BENCH})")
        p.add_argument("--runs", type=int, default=3,
                       help="measurement repetitions for the median (default 3)")
        p.add_argument("--from-json", nargs="+", metavar="FILE",
                       help="use saved driver JSON lines instead of running")

    p = sub.add_parser("append", help="append a dated median record to the trend file")
    common(p)
    p.add_argument("--trend", default=DEFAULT_TREND)
    p.set_defaults(fn=cmd_append)

    p = sub.add_parser("seed", help="write the committed baseline")
    common(p)
    p.add_argument("--out", default=DEFAULT_BASELINE)
    p.set_defaults(fn=cmd_seed)

    p = sub.add_parser("gate", help="fail on a 1-worker counter change or a "
                       ">tolerance wall regression vs the baseline")
    common(p)
    p.add_argument("--baseline", default=DEFAULT_BASELINE)
    p.add_argument("--tolerance", type=float, default=1.0)
    p.set_defaults(fn=cmd_gate)

    args = ap.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
