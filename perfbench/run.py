"""wedgetree benchmark: one workload, one run.

    python3 perfbench/run.py --workload corpus|witness|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Every pass runs in a fresh child process
(``worker.py``) with the checkout's ``src`` on its path; this process never
imports wedgetree.  ``--trace 0`` sets the workload up several times, then
runs a closed loop (one request in flight) for S seconds and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed number of requests untraced,
twice traced (the counts must repeat exactly) and the CLI start-up probes,
and reports the per-layer metrics.  Human-readable lines come first; the
last line is one JSON object.  The exit code is 0 only when every
correctness check passed.
"""

import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

import children  # noqa: E402
from tracing import SPAN_LAYERS  # noqa: E402

WORKLOADS = ("corpus", "witness", "cli")
SETUP_REPEATS = 5  # extra set-up-only processes; the measuring one adds a sixth
# requests per configured second in the fixed-count (traced) passes
TRACE_RATE = {"corpus": 25, "witness": 25, "cli": 0.8}

END_TO_END = [
    ("throughput_per_s", "1/s"), ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
]
PER_LAYER = (
    [("ordinals.new_calls", "count"), ("ordinals.add_calls", "count"),
     ("ordinals.cmp_calls", "count"), ("ordinals.self_s", "s"),
     ("trees.calls", "count"), ("trees.self_s", "s"),
     ("trees.view_hit_ratio", "ratio"), ("trees.view_entries", "count"),
     ("series.builds", "count"), ("series.distinct_keys", "count"),
     ("series.self_s", "s"),
     ("deciders.calls", "count"), ("deciders.self_s", "s"),
     ("deciders.undecidable", "count")]
    + [("%s.%s" % (layer, m), u) for layer in SPAN_LAYERS if layer.startswith("witness.")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("witness.verified_share", "ratio"),
       ("constructions.calls", "count"), ("constructions.self_s", "s"),
       ("classify.calls", "count"), ("classify.self_s", "s"),
       ("dsl.self_s", "s"), ("cli.interpreter_ms", "ms"),
       ("cli.import_ms", "ms"), ("cli.command_ms", "ms"),
       ("trace.overhead_ratio", "ratio")]
)


# prefix of the line, just before the result, with the metrics that are
# printed but not gated (see README.md)
REPORT_PREFIX = "report "


class RunFailed(Exception):
    pass


def worker(workload, seed, mode, arg=0):
    proc = children.run([str(children.HERE / "worker.py"), workload, str(seed),
                         mode, str(arg)])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed("%s %s worker failed (exit %d):\n%s"
                        % (workload, mode, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def src_bytecode():
    return sorted(str(p) for p in children.SRC.rglob("__pycache__"))


def end_to_end(args):
    setups = [worker(args.workload, args.seed, "setup")["setup_s"]
              for _ in range(SETUP_REPEATS)]
    res = worker(args.workload, args.seed, "measure", args.seconds)
    setups.append(res["setup_s"])
    res["setup_s"] = statistics.median(setups)
    metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}

    errors = res["errors"] + res["paper_errors"]
    failed = res["failed"] + len(res["paper_errors"])
    attempted = res["attempted"] + len(res["paper_errors"])
    print("workload %s, seed %d, %d requests in %ss, closed loop, one in flight"
          % (args.workload, args.seed, res["attempted"], args.seconds))
    for name, unit in END_TO_END:
        note = ""
        if name == "latency_tail_ms":
            note = "  (p%s, %d samples beyond)" % (res["tail_percentile"], res["beyond_tail"])
        elif name == "setup_s":
            note = "  (median of %d set-ups)" % len(setups)
        elif name == "peak_rss_mb" and args.workload != "cli":
            note = "  (after %d requests)" % res["rss_after_requests"]
        print("  %-20s %12.4f %s%s" % (name, res[name], unit, note))
    if "latency_pyc_p50_ms" in res:
        print("  %-20s %12.4f ms  (warm PYTHONPYCACHEPREFIX)"
              % ("latency_pyc_p50_ms", res["latency_pyc_p50_ms"]))
    print("  %-20s %12.4f share of %d requests" % ("error_share", failed / attempted, attempted))
    print("  times above are at reference speed; raw wall clock: %.4f requests/s, "
          "p50 %.4f ms; reference task %.4f ms (reference %.4f ms)"
          % (res["raw_throughput_per_s"], res["raw_latency_p50_ms"], res["reference_ms"],
             res["reference_ref_ms"]))
    report = {"error_share": failed / attempted, "tail_percentile": res["tail_percentile"],
              "fingerprint": res["fingerprint"]}
    if res["verdicts"]:
        what = "verdicts" if args.workload == "corpus" else "constructions"
        report["undecided_share"] = res["undecided"] / res["verdicts"]
        print("  %-20s %12.4f share of %d %s"
              % ("undecided_share", report["undecided_share"], res["verdicts"], what))
    if "latency_pyc_p50_ms" in res:
        report["latency_pyc_p50_ms"] = res["latency_pyc_p50_ms"]
    print("  input fingerprint: %s" % json.dumps(res["fingerprint"], sort_keys=True))
    print(REPORT_PREFIX + json.dumps(report, sort_keys=True))
    return metrics, attempted, failed, errors


def count_keys(raw):
    return {k: v for k, v in raw.items() if not k.endswith("_s")}


def per_layer(args):
    n = max(1, round(TRACE_RATE[args.workload] * args.seconds))
    fixed = worker(args.workload, args.seed, "fixed", n)
    traced = [worker(args.workload, args.seed, "traced", n) for _ in range(2)]
    probe = worker(args.workload, args.seed, "probe")
    passes = [fixed] + traced + [probe]
    errors = [e for p in passes for e in p["errors"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    repeat = count_keys(traced[0]["raw"]) == count_keys(traced[1]["raw"])
    if not repeat:
        errors.append("traced counts differ between two runs on seed %d" % args.seed)
        failed += 1

    raw = dict(traced[0]["raw"])
    looked_up = raw.get("trees.view_hits", 0) + raw.get("trees.view_misses", 0)
    if looked_up:
        raw["trees.view_hit_ratio"] = raw["trees.view_hits"] / looked_up
    raw["witness.verified_share"] = traced[0]["verified_share"]
    raw["trace.overhead_ratio"] = traced[0]["wall_s"] / fixed["wall_s"]
    raw.update(probe["metrics"])

    print("workload %s, seed %d: %d requests untraced, twice traced "
          "(counts %s), CLI probes"
          % (args.workload, args.seed, n, "repeat" if repeat else "DIFFER"))
    metrics = {}
    for name, unit in PER_LAYER:
        if name in raw:
            metrics[name] = {"value": raw[name], "unit": unit}
            print("  %-36s %16.6f %s" % (name, raw[name], unit))
        else:
            print("  %-36s %16s" % (name, "missing"))
    for entry in traced[0]["missing"]:
        print("  missing from the library: %s" % entry)
    return metrics, attempted, failed, errors


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that children.run stops and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (children.SRC / "wedgetree" / "__init__.py").is_file():
        print("no wedgetree sources under %s; run from a checkout" % children.SRC,
              file=sys.stderr)
        return 2
    bytecode_before = src_bytecode()
    try:
        metrics, attempted, failed, errors = (per_layer if args.trace else end_to_end)(args)
    except RunFailed as e:
        print(e, file=sys.stderr)
        return 1
    if src_bytecode() != bytecode_before:
        errors.append("bytecode was written under src/")
        failed += 1
    for e in errors:
        print("  FAILED: %s" % e)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
