"""Child-side entry for timed and traced CLI calls.

    python clichild.py timed|traced ARGS...

runs ``wedgetree.cli.main(ARGS)`` in this fresh interpreter and appends one
line ``PERFBENCH-CHILD {json}`` to standard error with the command time and,
when traced, the per-layer sums.  Standard output is the CLI's own.
"""

import json
import sys
import time

MARKER = "PERFBENCH-CHILD "


def main():
    mode = sys.argv.pop(1)
    import wedgetree.cli
    tracer = None
    if mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        return wedgetree.cli.main(sys.argv[1:])
    finally:
        report = {"command_s": time.perf_counter() - start}
        if tracer is not None:
            tracer.uninstall()
            report["raw"] = tracer.raw()
            report["missing"] = tracer.missing
        sys.stdout.flush()
        sys.stderr.write("\n" + MARKER + json.dumps(report) + "\n")


if __name__ == "__main__":
    sys.exit(main())
