"""Requests and their correctness checks for the in-process workloads.

Library functions are looked up on their modules at call time (``wt.resolve``
rather than a name imported once), so the tracer's wrappers see every call.
A request returns ``(error, undecided, verdicts)``: ``error`` is None or a
short description of a failed check, ``undecided`` counts UNKNOWN verdicts or
constructions that ended in ``UndecidableTailPattern``, and ``verdicts``
counts the verdicts or constructions made.
"""

from __future__ import annotations

import time

import wedgetree as wt
from wedgetree import topology
from wedgetree.errors import NotClosed, UndecidableTailPattern

import inputs
from seeds import repeat_share, seeded

# points and pairs per separating-family re-check (acceptance criterion 8)
FAMILY_POINTS = 25
FAMILY_CHECKS = 100
CORPUS_WARMUP = 40
WITNESS_WARMUP = 12


def timed(fn, *args):
    """Run one request; ``(error, undecided, verdicts, seconds)``."""
    start = time.perf_counter()
    try:
        error, undecided, verdicts = fn(*args)
    except Exception as e:  # a request that raises is a counted failure
        error, undecided, verdicts = "%s: %s" % (type(e).__name__, e), 0, 0
    return error, undecided, verdicts, time.perf_counter() - start


# -- corpus ------------------------------------------------------------------------

def corpus_request(d):
    wt.validate(d)
    report = wt.classify_report(d)
    rt = wt.roundtrip_check(d)
    verdicts = {p: v.verdict for p, v in report.props.items()}
    unknown = sum(v is wt.V3.UNKNOWN for v in verdicts.values())
    for a, b in inputs.IMPLICATIONS:
        if verdicts[a] is wt.V3.YES and verdicts[b] is not wt.V3.YES:
            return "closure %s => %s" % (a, b), unknown, len(verdicts)
        if verdicts[b] is wt.V3.NO and verdicts[a] is not wt.V3.NO:
            return "closure not %s => not %s" % (b, a), unknown, len(verdicts)
    if not rt.tilde_hat_ok:
        return "tilde(hat(d)) != d", unknown, len(verdicts)
    if rt.hat_tilde_ok != rt.is_r1:
        return "hat_tilde_ok != is_r1", unknown, len(verdicts)
    return None, unknown, len(verdicts)


def paper_example_errors():
    """Hand-written verdicts for the paper examples (acceptance criterion 1)."""
    errors = []
    reports = {}
    for d, prop, want, cite in inputs.PAPER_VERDICTS:
        if d not in reports:
            reports[d] = wt.classify_report(d)
        got = reports[d].props[prop]
        if got.verdict.value != want:
            errors.append("%s on %r: %s, want %s" % (prop, d, got.verdict.value, want))
        elif cite is not None and cite not in got.citation:
            errors.append("%s on %r: citation %r lacks %r" % (prop, d, got.citation, cite))
    return errors


# -- witness ------------------------------------------------------------------------

def _countably_closed(case, rng):
    d, taddr, S = case
    t = wt.resolve(d, taddr)
    wit = wt.countably_closed_witness(d, t, S)
    return wit.verified and wit.p.in_I and wt.leq(d, wit.p, t)


def _club(case, rng):
    d, taddr, S = case
    t = wt.resolve(d, taddr)
    wit = wt.club_accumulation(d, t, S)
    ok = wit.verified and wit.verdict is not wt.Verdict.NEITHER
    ok = ok and all(wt.cmp(a.ht, b.ht) < 0
                    for (a, _), (b, _) in zip(wit.pairs, wit.pairs[1:]))
    ok = ok and wt.cmp(wit.r.ht, t.ht) < 0
    return ok and all(wt.meet(d, sj, t).parts == rk.parts
                      for (_, sj), (rk, _) in zip(wit.pairs, wit.pairs[1:]))


def _fu_extract(case, rng):
    d, taddr, A = case
    t = wt.resolve(d, taddr)
    seq = wt.fu_extract(d, A, t)
    tail = wt.SeqSpec(tail=seq.tail)
    ok = wt.cluster_or_limit(d, tail, t, wt.Topology.SIGMA_CW) is wt.Verdict.CONVERGES
    # convergence in the finer topology implies it in the coarser one
    ok = ok and wt.cluster_or_limit(d, tail, t, wt.Topology.CW) is wt.Verdict.CONVERGES
    return ok and (not seq.head or wt.contains(d, A, wt.resolve(d, seq.head[0])))


def _maximality(case, rng):
    d, opens, expect_witness = case
    wit = wt.maximality_witness(d, opens)
    if not expect_witness:
        return wit is topology.ALREADY_SIGMA_OPEN
    if not isinstance(wit, topology.MaximalityWitness) or not wit.verified:
        return False
    if wit.t.cof is not wt.Cofinality.OMEGA:
        return False
    nodes = [wt.resolve(d, s) for s in wit.seq.head]
    ok = all(n.in_I and not any(wt.member(d, n, U) for U in opens) for n in nodes)
    return ok and all(wt.cmp(a.ht, b.ht) < 0 for a, b in zip(nodes, nodes[1:]))


def _separating_family(case, rng):
    d, S = case
    fam = wt.build_separating_family(d, S)
    pts = list({x.parts: x for x in topology.sample_members(d, S, 8)}.values())
    while len(pts) < FAMILY_POINTS:
        pts.append(rng.choice(pts))
    pts = pts[:FAMILY_POINTS]
    pairs = [(rng.choice(pts), rng.choice(pts)) for _ in range(FAMILY_CHECKS)]
    dense = [x for x in pts if x.ht.is_countable] + list(fam.singletons)
    points = [dense[rng.randrange(len(dense))] for _ in range(FAMILY_CHECKS)]
    return wt.check_t0(d, S, fam, pairs) and wt.check_point_countable(d, fam, points)


def _disjoint_closures(case, rng):
    d, A, B, expect_not_closed = case
    try:
        verdict = wt.disjoint_closures(d, A, B)
    except NotClosed as e:
        if not expect_not_closed:
            return False
        seq, limit = e.witness
        x = wt.resolve(d, limit)
        converges = wt.cluster_or_limit(
            d, wt.SeqSpec(tail=seq.tail), x, wt.Topology.SIGMA_CW) is wt.Verdict.CONVERGES
        return converges and not wt.contains(d, A if e.which == "A" else B, x)
    return not expect_not_closed and verdict.kind == "disjoint"


WITNESS_CHECKS = {
    "countably-closed": _countably_closed,
    "club": _club,
    "fu-extract": _fu_extract,
    "maximality": _maximality,
    "separating-family": _separating_family,
    "disjoint-closures": _disjoint_closures,
}


def witness_request(kind, case, rng):
    """One construction followed by its independent re-check."""
    try:
        ok = WITNESS_CHECKS[kind](case, rng)
    except UndecidableTailPattern:
        return None, 1, 1
    return (None if ok else "%s construction failed its re-check" % kind), 0, 1


# -- workloads ----------------------------------------------------------------------

class CorpusWorkload:
    """Distinct trees, each validated, classified and round-tripped.  The
    warm-up trees and the paper examples are excluded from the timed stream,
    so no timed tree finds the view cache warm."""

    def __init__(self, seed):
        self.exclude = {d for d, *_ in inputs.PAPER_VERDICTS}
        warm = inputs.distinct_trees(seeded(seed, "warm"), self.exclude)
        for _ in range(CORPUS_WARMUP):
            error = corpus_request(next(warm))[0]
            if error:
                raise RuntimeError("warm-up: " + error)
        self.stream = inputs.distinct_trees(seeded(seed, "timed"), self.exclude)
        self.used = []

    def next_input(self):
        d = next(self.stream)
        self.used.append(d)
        return d

    def request(self, d):
        return timed(corpus_request, d)

    def fingerprint(self):
        return inputs.tree_fingerprint(self.used)

    def verified_share(self):
        return 1.0  # no constructions: vacuously all verified

    def close(self):
        pass


class WitnessWorkload:
    """Seeded draws over the witness case tables; inputs repeat heavily."""

    def __init__(self, seed):
        self.cases = inputs.witness_cases()
        warm = inputs.witness_draws(seeded(seed, "warm"), self.cases)
        rng = seeded(seed, "warm-checks")
        for _ in range(WITNESS_WARMUP):
            kind, i = next(warm)
            error = witness_request(kind, self.cases[kind][i], rng)[0]
            if error:
                raise RuntimeError("warm-up: " + error)
        self.draws = inputs.witness_draws(seeded(seed, "timed"), self.cases)
        self.rng = seeded(seed, "timed-checks")
        self.used = []
        self.verified = 0

    def next_input(self):
        x = next(self.draws)
        self.used.append(x)
        return x

    def request(self, x):
        kind, i = x
        out = timed(witness_request, kind, self.cases[kind][i], self.rng)
        self.verified += out[0] is None and not out[1]
        return out

    def fingerprint(self):
        kinds = {}
        for kind, _ in self.used:
            kinds[kind] = kinds.get(kind, 0) + 1
        return {"inputs": len(self.used), "kinds": kinds,
                "distinct_cases": len(set(self.used)),
                "repeat_share": repeat_share(self.used)}

    def verified_share(self):
        return self.verified / max(len(self.used), 1)

    def close(self):
        pass
