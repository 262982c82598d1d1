"""One fresh benchmark process: set up one workload, then run one pass.

    python worker.py WORKLOAD SEED MODE [ARG]

MODE is ``setup`` (set up and stop), ``measure`` (closed loop for ARG
seconds), ``fixed`` (ARG requests, untraced), ``traced`` (ARG requests under
the tracer) or ``probe`` (cold CLI start-up probes).  The last line of
standard output is one JSON object.  Started by ``run.py``, which sets the
environment (``children.env``).
"""

import json
import resource
import signal
import statistics
import sys
import time

import calibrate

SETUP_KERNEL_REPEAT = 10

# fixed per workload so that a faster program cannot move the tail to
# another percentile; each leaves at least 10 samples beyond it at 30 s
TAIL_PERCENTILE = {"corpus": 99, "witness": 99, "cli": 75}
# peak RSS is read after this many requests, so it measures the same work
# on a fast and on a slow machine (cli reads its children's peak instead)
RSS_AFTER_REQUESTS = {"corpus": 1500, "witness": 1500}
SHOWN_ERRORS = 5


def make_workload(name, seed):
    """The workload, set up; wedgetree is first imported here."""
    if name == "cli":
        import cliload
        return cliload.CliWorkload(seed)
    import workloads
    if name == "corpus":
        return workloads.CorpusWorkload(seed)
    return workloads.WitnessWorkload(seed)


def reference_task(name, kernel_repeat=1):
    """(timed reference task, its reference time) for rescaling; see
    calibrate.py."""
    if name == "cli":
        return calibrate.interpreter_seconds, calibrate.INTERPRETER_REF_S
    return (lambda: calibrate.kernel_seconds(kernel_repeat)), calibrate.KERNEL_REF_S


def percentile(sorted_values, p):
    """Nearest-rank percentile of a sorted list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024


def measure(name, wl, seconds):
    """Closed loop for ``seconds``; every latency is rescaled by the
    reference task run just before and just after its request."""
    task, reference = reference_task(name)
    raw, scaled, pyc, references, errors = [], [], [], [], []
    undecided = verdicts = 0
    rss = None
    before = task()
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        error, und, ver, latency = wl.request(wl.next_input())
        after = task()
        raw.append(latency)
        scaled.append(calibrate.rescale(latency, before, after, reference))
        if name == "cli":
            pyc.append(calibrate.rescale(wl.pyc_latencies[-1], before, after, reference))
        references.append(after)
        before = after
        undecided += und
        verdicts += ver
        if error:
            errors.append(error)
        if len(raw) == RSS_AFTER_REQUESTS.get(name):
            rss = peak_rss_mb(resource.RUSAGE_SELF)
    if rss is None:
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF)
    lat = sorted(scaled)
    p = TAIL_PERCENTILE[name]
    tail = percentile(lat, p)
    out = {
        "attempted": len(lat), "failed": len(errors), "errors": errors[:SHOWN_ERRORS],
        "undecided": undecided, "verdicts": verdicts,
        "throughput_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_tail_ms": tail * 1000,
        "tail_percentile": p,
        "beyond_tail": sum(x > tail for x in lat),
        "peak_rss_mb": rss,
        "rss_after_requests": min(len(lat), RSS_AFTER_REQUESTS.get(name, len(lat))),
        "raw_throughput_per_s": len(raw) / sum(raw),
        "raw_latency_p50_ms": statistics.median(raw) * 1000,
        "reference_ms": statistics.median(references) * 1000,
        "reference_ref_ms": reference * 1000,
        "fingerprint": wl.fingerprint(),
    }
    if name == "cli":
        out["latency_pyc_p50_ms"] = statistics.median(pyc) * 1000
    return out


def fixed_inputs(wl, count):
    return [wl.next_input() for _ in range(count)]


def run_fixed(name, wl, count):
    xs = fixed_inputs(wl, count)
    if name == "cli":
        errors, wall = wl.fixed_pass(xs)
    else:
        start = time.perf_counter()
        errors = [e for e in (wl.request(x)[0] for x in xs) if e]
        wall = time.perf_counter() - start
    return {"attempted": count, "failed": len(errors), "errors": errors[:SHOWN_ERRORS],
            "wall_s": wall}


def run_traced(name, wl, count):
    xs = fixed_inputs(wl, count)
    if name == "cli":
        errors, wall, raw, missing, share = wl.traced_pass(xs)
    else:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        start = time.perf_counter()
        try:
            errors = [e for e in (wl.request(x)[0] for x in xs) if e]
        finally:
            wall = time.perf_counter() - start
            tracer.uninstall()
        raw, missing, share = tracer.raw(), tracer.missing, wl.verified_share()
    return {"attempted": count, "failed": len(errors), "errors": errors[:SHOWN_ERRORS],
            "wall_s": wall, "raw": raw, "missing": missing, "verified_share": share}


def run_probe(seed):
    """One round of every CLI command, plus bare interpreter starts."""
    import cliload
    from seeds import seeded
    rounds = cliload.schedule(seeded(seed, "probe"))
    order = [next(rounds) for _ in cliload.COMMANDS]
    errors, metrics = cliload.probe(order)
    return {"attempted": len(order), "failed": len(errors),
            "errors": errors[:SHOWN_ERRORS], "metrics": metrics}


def main(argv):
    # on SIGTERM, unwind so that CLI children are killed and temp dirs removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    arg = float(argv[3]) if len(argv) > 3 else 0
    if mode == "probe":
        print(json.dumps(run_probe(seed)))
        return 0
    calibrate.kernel_seconds(2)  # let the interpreter specialise the kernel first
    task, reference = reference_task(name, SETUP_KERNEL_REPEAT)
    before = task()
    start = time.perf_counter()
    wl = make_workload(name, seed)
    setup_raw_s = time.perf_counter() - start
    setup_s = calibrate.rescale(setup_raw_s, before, task(), reference)
    try:
        if mode == "setup":
            out = {}
        elif mode == "measure":
            out = measure(name, wl, arg)
            import workloads
            out["paper_errors"] = workloads.paper_example_errors()
        elif mode == "fixed":
            out = run_fixed(name, wl, int(arg))
        else:
            out = run_traced(name, wl, int(arg))
    finally:
        wl.close()
    out["setup_s"] = setup_s
    out["setup_raw_s"] = setup_raw_s
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
