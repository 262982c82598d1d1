"""Self-contained check suites behind the CLI selftest subcommand.

Each suite returns (name, passed, total); nothing here depends on pytest.
"""

from __future__ import annotations

import itertools
import random

from . import ordinals as o
from .errors import WedgeTreeError
from .ordinals import ONE, ZERO, Ordinal, nat
from .trees import leq, meet, validate
from .topology import Topology, is_subbasic
from .classify import IMPLICATIONS, V3, classify_report
from .corpus import random_description, sample_nodes


def _small_ordinals():
    out = []
    for c1 in range(5):
        for c0 in range(5):
            terms = []
            if c1:
                terms.append((ONE, c1))
            if c0:
                terms.append((ZERO, c0))
            out.append(Ordinal(0, tuple(terms)))
    return out


def ordinal_oracle_suite(seed=0):
    """cmp/add/fin_mul against the explicit block-word oracle."""
    rng = random.Random(seed)
    small = _small_ordinals()
    passed = total = 0
    for a, b in itertools.product(small, repeat=2):
        total += 2
        ta, tb = o.oracle_encode(a).boundary, o.oracle_encode(b).boundary
        want = -1 if ta < tb else (0 if ta == tb else 1)
        passed += o.cmp(a, b) == want
        word = o.oracle_encode(a).blocks() + o.oracle_encode(b).blocks()
        passed += o.oracle_encode(o.add(a, b)).boundary == o.measure_blocks(word)
    for a in small:
        for n in range(1, 6):
            total += 1
            word = o.blocks_fin_mul(n, o.oracle_encode(a).blocks())
            passed += o.oracle_encode(o.fin_mul(n, a)).boundary == o.measure_blocks(word)
    for _ in range(500):
        c2, c1, c0 = rng.randrange(4), rng.randrange(5), rng.randrange(5)
        terms = []
        if c2:
            terms.append((nat(2), c2))
        if c1:
            terms.append((ONE, c1))
        if c0:
            terms.append((ZERO, c0))
        a = Ordinal(0, tuple(terms))
        b = rng.choice(small)
        total += 1
        word = o.oracle_encode(a).blocks() + o.oracle_encode(b).blocks()
        passed += o.oracle_encode(o.add(a, b)).boundary == o.measure_blocks(word)
    return ("ordinal-oracle", passed, total)


def _valid_corpus(rng, n):
    out = []
    while len(out) < n:
        d = random_description(rng)
        try:
            validate(d)
        except WedgeTreeError:
            continue
        out.append(d)
    return out


def meet_glb_suite(seed=0, n=100):
    rng = random.Random(seed)
    passed = total = 0
    for d in _valid_corpus(rng, n // 4 + 1):
        nodes = sample_nodes(d, rng, 8)
        for _ in range(4):
            a, b, c = (rng.choice(nodes) for _ in range(3))
            total += 1
            m = meet(d, a, b)
            ok = leq(d, m, a) and leq(d, m, b)
            if leq(d, c, a) and leq(d, c, b):
                ok = ok and leq(d, c, m)
            passed += ok
            if total >= n:
                return ("meet-glb", passed, total)
    return ("meet-glb", passed, total)


def refinement_suite(seed=0, n=200):
    rng = random.Random(seed)
    passed = total = 0
    for d in _valid_corpus(rng, n // 4 + 1):
        for node in sample_nodes(d, rng, 4):
            total += 1
            if is_subbasic(d, node, Topology.CW):
                passed += is_subbasic(d, node, Topology.SIGMA_CW)
            else:
                passed += 1
            if total >= n:
                return ("cw-refines-sigma", passed, total)
    return ("cw-refines-sigma", passed, total)


def report_consistency_suite(seed=0, n=60, descs=None):
    rng = random.Random(seed)
    corpus = descs if descs is not None else _valid_corpus(rng, n)
    passed = total = 0
    for d in corpus:
        total += 1
        try:
            rep = classify_report(d)
        except WedgeTreeError:
            continue
        ok = True
        for a, b, _, _ in IMPLICATIONS:
            if rep.verdict(a) is V3.YES and rep.verdict(b) is not V3.YES:
                ok = False
            if rep.verdict(b) is V3.NO and rep.verdict(a) is not V3.NO:
                ok = False
        passed += ok
    return ("report-consistency", passed, total)


ALL_SUITES = {
    "ordinal": lambda seed, descs: [ordinal_oracle_suite(seed)],
    "trees": lambda seed, descs: [meet_glb_suite(seed)],
    "topology": lambda seed, descs: [refinement_suite(seed)],
    "classify": lambda seed, descs: [report_consistency_suite(seed, descs=descs)],
}


def run_selftest(scope="all", seed=0, descs=None):
    results = []
    for name, runner in ALL_SUITES.items():
        if scope in ("all", name):
            results.extend(runner(seed, descs))
    return results
