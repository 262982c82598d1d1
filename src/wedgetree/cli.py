"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error, 2 on a parse error.
Witness outputs always carry a `verified` flag: the construction is re-checked
by the matching decider before it is printed.  A witness kind that gets too
few or too many forms after the tree is a parse error.

Each command imports the modules it runs inside its own branch, so a cold
call loads only those.  Parsing and ``resolve`` need ``errors``,
``ordinals``, ``trees`` and ``dsl``; ``classify`` adds ``classify`` and
``constructions``, and ``witness roundtrip`` adds ``constructions``.  None of
them loads ``topology`` or ``series``: the ``classify`` and ``constructions``
modules read ``wedgetree.topology`` off the package only in their
separating-family and disjoint-closures code, whose sets are topology specs
that ``dsl`` loaded when it parsed them.  The other witness kinds load
``topology`` and ``series``, and so does ``selftest`` when it runs its
topology suite.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import NotClosed, ParseError, WedgeTreeError
from . import dsl
from .trees import resolve, validate

_ERROR_CITATIONS = {
    "not-chain-complete":
        "compact Hausdorff needs chain completeness and finitely many minimal"
        " elements (§2)",
    "height-too-large": "the separating-family construction covers heights"
                        " up to w1+1 (Prop 2.4)",
}

# the forms each witness kind reads after the tree, in order; "..." repeats
# the form before it
_WITNESS_ARGS = {
    "countably-closed": ("ADDR", "SET"),
    "club": ("ADDR", "SET"),
    "fu-extract": ("SET", "ADDR"),
    "maximality": ("OPEN", "..."),
    "disjoint-closures": ("SET", "SET"),
    "separating-family": ("SET",),
    "roundtrip": (),
}


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_text(payload)


def _print_text(payload, indent=""):
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                print("%s%s:" % (indent, k))
                _print_text(v, indent + "  ")
            else:
                print("%s%s: %s" % (indent, k, v))
    elif isinstance(payload, list):
        for v in payload:
            _print_text(v, indent)
    else:
        print("%s%s" % (indent, payload))


def _parse_desc_arg(text):
    return dsl.parse_desc(dsl.read_sexpr(text))


def cmd_classify(args):
    d = _parse_desc_arg(args.desc)
    validate(d)
    from .classify import classify_report
    report = classify_report(d)
    payload = report.to_json()
    payload["description"] = dsl.print_desc(d)
    _emit(payload, args.json)
    return 0


def cmd_resolve(args):
    d = _parse_desc_arg(args.desc)
    validate(d)
    node = resolve(d, dsl.parse_address(dsl.read_sexpr(args.address)))
    payload = {
        "address": dsl.print_address(node.address()),
        "ht": str(node.ht),
        "cf": str(node.cof),
        "ims": str(node.ims),
        "maximal": node.maximal,
        "in_I": node.in_I,
        "is_root": node.is_root,
    }
    _emit(payload, args.json)
    return 0


def _check_witness_args(kind, args):
    """Raise ParseError unless ``kind`` is a witness kind and ``args`` has as
    many forms as it reads."""
    want = _WITNESS_ARGS.get(kind)
    if want is None:
        raise ParseError("unknown witness kind: %s" % (kind,))
    least = len(want) - want.count("...")
    if len(args) < least or (len(args) > least and "..." not in want):
        raise ParseError(
            "witness %s takes %s after the tree, got %d argument%s"
            % (kind, " ".join(want) or "nothing", len(args),
               "" if len(args) == 1 else "s"),
            expected=" ".join(want), got=len(args))


def cmd_witness(args):
    kind = args.kind
    _check_witness_args(kind, args.args)
    d = _parse_desc_arg(args.desc)
    if kind == "countably-closed":
        from .topology import countably_closed_witness
        t = dsl.parse_address(dsl.read_sexpr(args.args[0]))
        S = dsl.parse_set(dsl.read_sexpr(args.args[1]))
        payload = countably_closed_witness(d, t, S).to_json()
    elif kind == "club":
        from .topology import club_accumulation
        t = dsl.parse_address(dsl.read_sexpr(args.args[0]))
        S = dsl.parse_set(dsl.read_sexpr(args.args[1]))
        payload = club_accumulation(d, t, S).to_json()
    elif kind == "fu-extract":
        from .topology import (
            SeqSpec, Topology, Verdict, cluster_or_limit, contains, fu_extract,
        )
        A = dsl.parse_set(dsl.read_sexpr(args.args[0]))
        t = dsl.parse_address(dsl.read_sexpr(args.args[1]))
        seq = fu_extract(d, A, t)
        # the tail converges to t, and the head starts inside A
        verified = cluster_or_limit(d, SeqSpec(tail=seq.tail), t,
                                    Topology.SIGMA_CW) is Verdict.CONVERGES
        if seq.head:
            verified = verified and contains(d, A, seq.head[0])
        payload = {"kind": "fu-extract", "sequence": dsl.print_seq(seq),
                   "verified": verified}
    elif kind == "maximality":
        from .topology import (
            ALREADY_SIGMA_OPEN, Topology, is_subbasic, maximality_witness,
            minimal_bases,
        )
        opens = [dsl.parse_open(dsl.read_sexpr(a)) for a in args.args]
        wit = maximality_witness(d, opens)
        if wit is ALREADY_SIGMA_OPEN:
            # the union is sigma-open when each of its minimal bases may be
            # taken as subbasic there
            verified = all(is_subbasic(d, b, Topology.SIGMA_CW)
                           for b in minimal_bases(d, opens))
            payload = {"kind": "maximality", "verdict": "already-sigma-open",
                       "verified": verified}
        else:
            payload = wit.to_json()
            payload["verdict"] = "separating-sequence"
    elif kind == "disjoint-closures":
        from .constructions import disjoint_closures
        A = dsl.parse_set(dsl.read_sexpr(args.args[0]))
        B = dsl.parse_set(dsl.read_sexpr(args.args[1]))
        payload = disjoint_closures(d, A, B).to_json()
    elif kind == "separating-family":
        from .classify import build_separating_family
        S = dsl.parse_set(dsl.read_sexpr(args.args[0]))
        payload = build_separating_family(d, S).to_json()
    else:  # roundtrip
        from .constructions import roundtrip_check
        rt = roundtrip_check(d)
        # roundtrip_check's law: tilde(hat(d)) recovers d always, and
        # hat(tilde(d)) recovers d exactly on R1 trees
        payload = {"kind": "roundtrip", "tilde_hat_ok": rt.tilde_hat_ok,
                   "hat_tilde_ok": rt.hat_tilde_ok, "is_r1": rt.is_r1,
                   "verified": rt.tilde_hat_ok and rt.hat_tilde_ok == rt.is_r1}
    _emit(payload, args.json)
    return 0


def cmd_selftest(args):
    from .selftest import run_selftest
    descs = None
    if args.corpus:
        try:
            with open(args.corpus) as f:
                lines = [line.strip() for line in f]
        except (OSError, UnicodeDecodeError) as e:
            raise ParseError("cannot read the corpus file", path=args.corpus,
                             reason=str(e)) from e
        descs = [_parse_desc_arg(line) for line in lines if line]
    results = run_selftest(args.scope, seed=args.seed, descs=descs)
    failures = 0
    payload = []
    for name, passed, total in results:
        payload.append({"suite": name, "passed": passed, "total": total,
                        "ok": passed == total})
        failures += passed != total
    _emit(payload, args.json)
    return 0 if failures == 0 else 1


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    p = argparse.ArgumentParser(
        prog="wedgetree",
        description="chain-complete trees, wedge topologies, classification")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", parents=[common],
                       help="classification report for a tree")
    c.add_argument("desc")
    c.set_defaults(func=cmd_classify)

    r = sub.add_parser("resolve", parents=[common],
                       help="resolve an address to node data")
    r.add_argument("desc")
    r.add_argument("address")
    r.set_defaults(func=cmd_resolve)

    w = sub.add_parser("witness", parents=[common],
                       help="run a witness construction")
    w.add_argument("kind", choices=list(_WITNESS_ARGS))
    w.add_argument("desc")
    w.add_argument("args", nargs="*")
    w.set_defaults(func=cmd_witness)

    s = sub.add_parser("selftest", parents=[common],
                       help="run the oracle and invariant suites")
    s.add_argument("scope", nargs="?", default="all",
                   choices=["all", "ordinal", "trees", "topology", "classify"])
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--corpus", help="file of newline-separated descriptions")
    s.set_defaults(func=cmd_selftest)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    as_json = getattr(args, "json", False)
    try:
        return args.func(args)
    except WedgeTreeError as e:
        _emit(_error_payload(e), as_json)
        return 2 if isinstance(e, ParseError) else 1


def _error_payload(e):
    """The error's code, message and details, with its citation, if any.

    A ``NotClosed`` error adds its escaping sequence and that sequence's
    limit in the description language; any other detail that is not a JSON
    scalar is printed with ``str``."""
    payload = e.to_json()
    if isinstance(e, NotClosed) and e.witness is not None:
        seq, limit = e.witness
        payload["sequence"] = dsl.print_seq(seq)
        payload["limit"] = dsl.print_address(limit)
    citation = _ERROR_CITATIONS.get(e.code)
    if citation:
        payload["citation"] = citation
    return {k: v if v is None or isinstance(v, (str, int, float, bool)) else str(v)
            for k, v in payload.items()}


if __name__ == "__main__":
    sys.exit(main())
