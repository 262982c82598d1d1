"""The ``cli`` workload: one cold interpreter per request, one at a time.

Each request runs a command twice: with bytecode writes disabled (the
default here, so the library is compiled from source on every call) and with
a private ``PYTHONPYCACHEPREFIX`` warmed during set-up.  Exit codes and the
``--json`` output of every call are checked.
"""

from __future__ import annotations

import json
import shutil
import statistics
import tempfile
import time

import children
from clichild import MARKER
from seeds import repeat_share, seeded

CORPUS_FILE = "my_trees.txt"
CORPUS = "(full 2 (+ w1 1))\n(seg w1)\n(graft (seg w1) (((seg 0) w)))\n"

# README commands plus one domain error and one parse error:
# (name, argv, expected exit code)
COMMANDS = [
    ("classify", ["classify", "(full 2 (+ w1 1))", "--json"], 0),
    ("resolve", ["resolve", "(seg w1)", "(addr (up w))", "--json"], 0),
    ("witness-countably-closed",
     ["witness", "countably-closed", "(full 2 (+ w1 1))", '(addr (word "0" w1))',
      '(omega-family (addr (word "0" n) (child 1)))', "--json"], 0),
    ("witness-roundtrip",
     ["witness", "roundtrip", "(graft (seg w1) (((seg 0) w)))", "--json"], 0),
    ("selftest", ["selftest", "--seed", "7", "--json"], 0),
    ("selftest-corpus", ["selftest", "classify", "--corpus", CORPUS_FILE, "--json"], 0),
    ("domain-error", ["classify", "(full 2 w)", "--json"], 1),
    ("parse-error", ["classify", "(full 2", "--json"], 2),
]

CLI_BOOT = "import sys; from wedgetree.cli import main; sys.exit(main())"
CHILD_SCRIPT = str(children.HERE / "clichild.py")
INTERPRETER_PROBES = 5


def schedule(rng):
    """Endless command indices in rounds; each round is a seeded shuffle of
    all commands, so every run sees the same mix."""
    while True:
        order = list(range(len(COMMANDS)))
        rng.shuffle(order)
        yield from order


def _classify_ok(p):
    wc = p["WeaklyCorson"]
    return (wc["verdict"] == "no" and wc["rule"] == "R4"
            and "Example 4.5" in wc["citation"]
            and p["HereditarilyValdivia"]["verdict"] == "yes"
            and p["Valdivia"]["verdict"] == "yes")


OUTPUT_CHECKS = {
    "classify": _classify_ok,
    "resolve": lambda p: p["ht"] == "w" and p["cf"] == "w" and p["maximal"] is False,
    "witness-countably-closed":
        lambda p: p["kind"] == "countably-closed" and p["verified"] is True,
    "witness-roundtrip":
        lambda p: (p["tilde_hat_ok"] is True and p["hat_tilde_ok"] is False
                   and p["is_r1"] is False),
    "selftest": lambda p: len(p) > 0 and all(s["ok"] for s in p),
    "selftest-corpus": lambda p: p[0]["total"] == 3 and p[0]["ok"] is True,
    "domain-error":
        lambda p: p["error"] == "not-chain-complete" and "chain completeness" in p["citation"],
    "parse-error": lambda p: p["error"] == "parse-error",
}


def check_output(name, want_code, proc):
    """None when the call exited as expected with the expected JSON."""
    if proc.returncode != want_code:
        return "%s: exit %d, want %d" % (name, proc.returncode, want_code)
    try:
        ok = OUTPUT_CHECKS[name](json.loads(proc.stdout))
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return "%s: unreadable output (%s)" % (name, e)
    return None if ok else "%s: unexpected output" % name


def child_report(proc):
    for line in reversed(proc.stderr.splitlines()):
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER):])
    raise RuntimeError("child printed no report: %s" % proc.stderr[-500:])


def wedgetree_import_us(stderr):
    """Self time of wedgetree's own modules from ``-X importtime`` output."""
    total = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[2].strip()
        if name == "wedgetree" or name.startswith("wedgetree."):
            total += int(fields[0])
    return total


class CliDir:
    """A temporary directory inside the checkout holding the bytecode prefix
    and the corpus file the ``selftest --corpus`` command reads.  ``close``
    removes it."""

    def __init__(self):
        self.dir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=children.ROOT)
        with open("%s/%s" % (self.dir, CORPUS_FILE), "w") as f:
            f.write(CORPUS)
        self.prefix = "%s/pycache" % self.dir

    def call(self, argv, pyc=False, flags=()):
        start = time.perf_counter()
        proc = children.run(list(flags) + argv, cwd=self.dir,
                            pycache_prefix=self.prefix if pyc else None)
        return proc, time.perf_counter() - start

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class CliWorkload:
    def __init__(self, seed):
        self.box = CliDir()
        proc, _ = self.box.call(["-c", "import wedgetree.cli"], pyc=True)
        if proc.returncode:
            self.box.close()
            raise RuntimeError("bytecode warm-up failed: %s" % proc.stderr[-500:])
        self.schedule = schedule(seeded(seed, "timed"))
        self.used = []
        self.pyc_latencies = []

    def close(self):
        self.box.close()

    def next_input(self):
        i = next(self.schedule)
        self.used.append(i)
        return i

    def request(self, i):
        """(error, undecided, verdicts, latency of the no-bytecode call)."""
        name, argv, want = COMMANDS[i]
        proc, latency = self.box.call(["-c", CLI_BOOT] + argv)
        error = check_output(name, want, proc)
        proc, pyc_latency = self.box.call(["-c", CLI_BOOT] + argv, pyc=True)
        self.pyc_latencies.append(pyc_latency)
        return error or check_output(name, want, proc), 0, 0, latency

    def fingerprint(self):
        counts = {}
        for i in self.used:
            counts[COMMANDS[i][0]] = counts.get(COMMANDS[i][0], 0) + 1
        return {"inputs": len(self.used), "commands": counts,
                "repeat_share": repeat_share(self.used)}

    # -- fixed-count passes for the traced run ----------------------------------

    def fixed_pass(self, order):
        """Plain cold calls; (errors, wall seconds)."""
        errors, wall = [], 0.0
        for i in order:
            name, argv, want = COMMANDS[i]
            proc, dt = self.box.call(["-c", CLI_BOOT] + argv)
            wall += dt
            err = check_output(name, want, proc)
            if err:
                errors.append(err)
        return errors, wall

    def traced_pass(self, order):
        """Traced cold calls; (errors, wall seconds, summed raw, missing,
        verified share of witness outputs)."""
        errors, wall, raw, missing = [], 0.0, {}, []
        verified = witnesses = 0
        for i in order:
            name, argv, want = COMMANDS[i]
            proc, dt = self.box.call([CHILD_SCRIPT, "traced"] + argv)
            wall += dt
            err = check_output(name, want, proc)
            if err:
                errors.append(err)
                continue
            report = child_report(proc)
            missing = report["missing"]
            for k, v in report["raw"].items():
                raw[k] = raw.get(k, 0) + v
            if name.startswith("witness-"):
                witnesses += 1
                verified += json.loads(proc.stdout).get("verified") is True
        share = verified / witnesses if witnesses else 1.0
        return errors, wall, raw, missing, share


def probe(order):
    """Interpreter start-up, wedgetree import (``-X importtime``) and command
    times, as medians over cold calls.  Returns (errors, metrics)."""
    box = CliDir()
    try:
        interp = [box.call(["-c", "pass"])[1] for _ in range(INTERPRETER_PROBES)]
        errors, imports, commands = [], [], []
        for i in order:
            name, argv, want = COMMANDS[i]
            proc, _ = box.call([CHILD_SCRIPT, "timed"] + argv, flags=("-X", "importtime"))
            err = check_output(name, want, proc)
            if err:
                errors.append(err)
                continue
            imports.append(wedgetree_import_us(proc.stderr) / 1000)
            commands.append(child_report(proc)["command_s"] * 1000)
    finally:
        box.close()
    metrics = {"cli.interpreter_ms": statistics.median(interp) * 1000}
    if imports:
        metrics["cli.import_ms"] = statistics.median(imports)
        metrics["cli.command_ms"] = statistics.median(commands)
    return errors, metrics
