"""Repeat the benchmark over several seeds and summarise every metric.

    python3 perfbench/baseline.py [--workloads corpus,witness,cli]
        [--seeds 10] [--first-seed 1] [--trace-seeds 4] [--out FILE]

For each workload it runs ``run.py`` once per seed with the run length from
BENCHMARK.json and reports, per end-to-end metric, the median, the quartiles
(``statistics.quantiles(n=4)``) and their distance as a share of the median,
next to a third of the metric's bound.  With ``--trace-seeds`` it also runs
the traced pass and summarises the per-layer metrics.  ``--out`` writes the
summary as JSON, together with the Python version, the commit, ``nproc`` and
the bytecode setting of the measured calls.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import children  # noqa: E402
from run import REPORT_PREFIX  # noqa: E402

RUN = str(children.HERE / "run.py")


def run_once(workload, seed, seconds, trace):
    """(result, report) of one run; report holds the ungated metrics."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=children.ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.exit("%s seed %d trace %d failed (exit %d):\n%s\n%s"
                 % (workload, seed, trace, proc.returncode, proc.stdout[-3000:],
                    proc.stderr[-3000:]))
    report = {}
    for line in lines:
        if line.startswith(REPORT_PREFIX):
            report = json.loads(line[len(REPORT_PREFIX):])
    return result, report


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=children.ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="corpus,witness,cli")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace-seeds", type=int, default=0)
    p.add_argument("--out")
    args = p.parse_args()
    with open(children.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    summary = {}
    steady = True
    for workload in args.workloads.split(","):
        done = [run_once(workload, s, seconds, 0) for s in seeds]
        runs = [result["metrics"] for result, _ in done]
        rows = {}
        for name in bounds:
            rows[name] = summarise([r[name]["value"] for r in runs])
            rows[name]["unit"] = runs[0][name]["unit"]
            ok = name == "setup_s" or rows[name]["spread"] < bounds[name] / 3
            steady = steady and ok
            print("%-8s %-18s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.4f  "
                  "(bound/3 %.4f)%s"
                  % (workload, name, rows[name]["median"], rows[name]["q1"],
                     rows[name]["q3"], rows[name]["spread"], bounds[name] / 3,
                     "" if ok else "  WIDE"), flush=True)
        reports = [report for _, report in done]
        summary[workload] = {"end_to_end": rows, "ungated": {
            name: summarise([r[name] for r in reports])
            for name in ("error_share", "undecided_share", "latency_pyc_p50_ms")
            if name in reports[0]}}
        if args.trace_seeds:
            traced = [run_once(workload, s, seconds, 1)[0]["metrics"]
                      for s in seeds[:args.trace_seeds]]
            summary[workload]["per_layer"] = {
                name: dict(summarise([t[name]["value"] for t in traced]),
                           unit=traced[0][name]["unit"])
                for name in traced[0]}
    meta = {
        "commit": commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "run_seconds": seconds, "seeds": seeds,
        "bytecode": "cold CLI calls run with PYTHONDONTWRITEBYTECODE=1; "
                    "latency_pyc_p50_ms uses a private warmed PYTHONPYCACHEPREFIX",
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"meta": meta, "workloads": summary}, f, indent=1, sort_keys=True)
            f.write("\n")
    print("steady" if steady else "NOT steady: a spread is at or above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
