"""Line ledger: the executable statements of each ``src/wedgetree`` module
that a pytest run never executed, traced with the stdlib ``sys.settrace``.

It is an opt-in plugin, loaded only when asked for by name::

    PYTHONPATH=src:tests python -m pytest -q -p line_ledger
    PYTHONPATH=src:tests python -m pytest -q -p line_ledger --line-ledger=out.txt

The run prints, for each module, how many of its executable lines were not
executed and which, as line ranges; ``--line-ledger`` also writes that report
to a file.  A module's executable lines are those its compiled code objects
map an instruction to, other than a ``RESUME`` or ``NOP``.
Only this interpreter is traced: lines that only the CLI subprocesses of
``test_cli`` run count as unexecuted.  The trace makes the run several times
slower, so it is not part of the ordinary test run.
"""

import dis
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wedgetree"
_SKIP = frozenset(("RESUME", "NOP"))


def pytest_addoption(parser):
    parser.addoption("--line-ledger", default=None, metavar="PATH",
                     help="also write the line ledger to PATH")


def _code_lines(code, out):
    for ins in dis.get_instructions(code):
        if ins.opname not in _SKIP and ins.positions and ins.positions.lineno:
            out.add(ins.positions.lineno)
    for c in code.co_consts:
        if hasattr(c, "co_code"):
            _code_lines(c, out)
    return out


def executable_lines(path):
    """The line numbers of ``path`` that some instruction belongs to."""
    code = compile(path.read_text(), str(path), "exec")
    return _code_lines(code, set())


def _ranges(lines):
    out = []
    for n in sorted(lines):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in out)


class _Ledger:
    def __init__(self):
        self.files = {str(p): p for p in sorted(SRC.glob("*.py"))}
        self.seen = {f: set() for f in self.files}

    def trace(self, frame, event, arg):
        lines = self.seen.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def start(self):
        early = [m for m in sys.modules if m == "wedgetree" or m.startswith("wedgetree.")]
        if early:
            sys.stderr.write("line ledger: already imported, top-level lines "
                             "miss: %s\n" % ", ".join(sorted(early)))
        threading.settrace(self.trace)
        sys.settrace(self.trace)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    def report(self):
        rows, total_exec, total_miss = [], 0, 0
        for f, p in self.files.items():
            lines = executable_lines(p)
            miss = lines - self.seen[f]
            total_exec += len(lines)
            total_miss += len(miss)
            rows.append("%-16s %4d of %4d unexecuted: %s"
                        % (p.stem, len(miss), len(lines), _ranges(miss) or "-"))
        rows.append("%-16s %4d of %4d unexecuted" % ("total", total_miss, total_exec))
        return "\n".join(rows) + "\n"


_LEDGER = _Ledger()


def pytest_configure(config):
    _LEDGER.start()


def pytest_unconfigure(config):
    _LEDGER.stop()
    text = _LEDGER.report()
    sys.stdout.write("\nline ledger (src/wedgetree, this interpreter only)\n" + text)
    path = config.getoption("--line-ledger")
    if path:
        Path(path).write_text(text)
