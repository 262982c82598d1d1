import contextlib
import io
import json
import re

import pytest

from wedgetree import classify, constructions, dsl, topology
from wedgetree.cli import main
from wedgetree.errors import WedgeTreeError
from wedgetree.ordinals import nat
from wedgetree.topology import Topology
from wedgetree.trees import validate

from helpers import OUTSIDE_THE_DOMAIN


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_json(capsys):
    code, out = run(capsys, "classify", "(full 2 (+ w1 1))", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["WeaklyCorson"]["verdict"] == "no"
    assert payload["WeaklyCorson"]["rule"] == "R4"
    assert "Example 4.5" in payload["WeaklyCorson"]["citation"]
    assert payload["Valdivia"]["verdict"] == "yes"


def test_classify_under_nine_hats(capsys):
    tree = "(hat " * 9 + "(full 2 (+ w1 1))" + ")" * 9
    code, out = run(capsys, "classify", tree, "--json")
    assert code == 0
    wc = json.loads(out)["WeaklyCorson"]
    assert wc["verdict"] == "no" and wc["rule"] == "R4"
    assert wc["witness"]["top"] == '(addr (word "0" w1)%s)' % (" (below)" * 9)


def test_classify_text(capsys):
    code, out = run(capsys, "classify", "(seg w1)")
    assert code == 0
    assert "Valdivia" in out


def test_classify_domain_error_carries_citation(capsys):
    code, out = run(capsys, "--does-not-exist")
    assert code == 2
    code, out = run(capsys, "classify", "(full 2 w)", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "not-chain-complete"
    assert "chain completeness" in payload["citation"]


def test_parse_error_exit_code(capsys):
    code, out = run(capsys, "classify", "(full 2")
    assert code == 2


def test_resolve(capsys):
    code, out = run(capsys, "resolve", "(seg w1)", "(addr (up w1))", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ht"] == "w1"
    assert payload["cf"] == "w1"
    assert payload["maximal"] is True


def test_witness_countably_closed(capsys):
    code, out = run(capsys, "witness", "countably-closed", "(full 2 (+ w1 1))",
                    '(addr (word "0" w1))',
                    '(omega-family (addr (word "0" n) (child 1)))', "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["kind"] == "countably-closed"


def test_witness_countably_closed_clears_a_member_in_the_cone(capsys):
    """Member 30 of the family lies above t's node ``(child 30)``, so the
    meets reach height 1 and p sits one step above it, outside the family."""
    code, out = run(capsys, "witness", "countably-closed", "(full w (+ w1 1))",
                    '(addr (child 30) (word "0" w1))',
                    '(omega-family (addr (child n) (child 1)))', "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == "(addr (child 30) (child 0))"
    assert payload["sup_of_meets"] == "1"
    assert payload["verified"] is True


def test_witness_maximality(capsys):
    code, out = run(capsys, "witness", "maximality", "(seg (+ w 1))",
                    "(cdiff (addr (up w)) ((addr (up (+ w 1)))))", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "separating-sequence"
    assert payload["verified"] is True


def test_witness_maximality_already_sigma_open(capsys, monkeypatch):
    """The flag re-checks each minimal base of the union: the node at height
    3 lies below the cone difference at w, and its cone is sigma-subbasic."""
    argv = ("witness", "maximality", "(seg (+ w 1))", "(cone (addr (up 3)))",
            "(cdiff (addr (up w)))", "--json")
    code, out = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "already-sigma-open"
    assert payload["verified"] is True
    checked = []

    def refuse(d, t, top):
        checked.append((t.ht, top))
        return False

    monkeypatch.setattr(topology, "is_subbasic", refuse)
    code, out = run(capsys, *argv)
    assert json.loads(out)["verified"] is False
    assert checked == [(nat(3), Topology.SIGMA_CW)]


def test_witness_roundtrip(capsys):
    code, out = run(capsys, "witness", "roundtrip",
                    "(graft (seg w1) (((seg 0) w)))", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tilde_hat_ok"] is True
    assert payload["hat_tilde_ok"] is False


def test_witness_club_over_a_copy_index_is_undecidable(capsys):
    code, out = run(capsys, "witness", "club", "(graft (seg w1) (((seg 0) w)))",
                    "(addr (up w1))",
                    "(club (addr (up w1)) (addr (up w1) (copy 0 n)))", "--json")
    assert code == 1
    assert json.loads(out)["error"] == "undecidable-tail"


def test_selftest_quick(capsys):
    code, out = run(capsys, "selftest", "trees", "--seed", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert all(suite["ok"] for suite in payload)


def test_selftest_with_corpus_file(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("(full 2 (+ w1 1))\n(seg w1)\n(graft (seg w1) (((seg 0) w)))\n")
    code, out = run(capsys, "selftest", "classify", "--corpus", str(corpus), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["total"] == 3 and payload[0]["ok"]


def test_selftest_counts_a_tree_it_cannot_classify_as_a_failure(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("(seg w1)\n(full 2 w)\n")  # the second is not chain complete
    code, out = run(capsys, "selftest", "classify", "--corpus", str(corpus), "--json")
    assert code == 1
    assert json.loads(out) == [{"suite": "report-consistency", "passed": 1,
                                "total": 2, "ok": False}]


def test_selftest_with_an_unreadable_corpus_file_is_a_parse_error(tmp_path, capsys):
    """A corpus path that names no file, or a directory, gives the usual
    error line with the path, and exit code 2."""
    for path in (tmp_path / "missing.txt", tmp_path):
        code, out = run(capsys, "selftest", "classify", "--corpus", str(path), "--json")
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "parse-error"
        assert payload["path"] == str(path)


def test_witness_roundtrip_verified_follows_the_round_trip_law(capsys, monkeypatch):
    import wedgetree.constructions as constructions

    code, out = run(capsys, "witness", "roundtrip",
                    "(graft (seg w1) (((seg 0) w)))", "--json")
    assert code == 0 and json.loads(out)["verified"] is True
    # inconsistent results: hat(tilde(d)) recovers a non-R1 tree, or
    # tilde(hat(d)) fails
    for rt in (constructions.RoundTrip(True, True, False),
               constructions.RoundTrip(False, False, False)):
        monkeypatch.setattr(constructions, "roundtrip_check", lambda d, rt=rt: rt)
        code, out = run(capsys, "witness", "roundtrip", "(seg w1)", "--json")
        assert code == 0
        assert json.loads(out)["verified"] is False


def test_parse_error_reports_its_position(capsys):
    code, out = run(capsys, "classify", "(full 2", "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "parse-error"
    assert payload["message"] == "missing )"
    assert payload["position"] == 0


@pytest.mark.parametrize("argv", [
    ("resolve", "(seg w1)", text) for text in (
        "(addr (child x))", "(addr (up))", "(addr (child))",
        "(addr (copy 0 x))", "(addr (copy x 0))", '(addr (word "0a" 3))',
        "(addr (child (+ w 1)))", "(addr (up (+)))")
] + [
    ("classify", "(seg (+))"),
    ("witness", "separating-family", "(seg w1)", "(branch)"),
    ("witness", "separating-family", "(seg w1)", "(cone-set)"),
    ("witness", "maximality", "(seg w1)", "(cone)"),
    ("witness", "maximality", "(seg w1)", "(wedge)"),
], ids=lambda argv: argv[-1])
def test_malformed_forms_are_parse_errors(capsys, argv):
    code, out = run(capsys, *argv, "--json")
    assert code == 2
    assert json.loads(out)["error"] == "parse-error"


_SET, _ADDR = "(explicit (addr))", "(addr)"


# one form too few and one too many for each witness kind; maximality reads
# any number of opens from one on
@pytest.mark.parametrize("kind,forms", [
    ("countably-closed", [_ADDR]), ("countably-closed", [_ADDR, _SET, _SET]),
    ("club", [_ADDR]), ("club", [_ADDR, _SET, _SET]),
    ("fu-extract", [_SET]), ("fu-extract", [_SET, _ADDR, _ADDR]),
    ("disjoint-closures", [_SET]), ("disjoint-closures", [_SET, _SET, _SET]),
    ("separating-family", []), ("separating-family", [_SET, _SET]),
    ("maximality", []),
    ("roundtrip", [_ADDR]),
], ids=lambda x: x if isinstance(x, str) else str(len(x)))
def test_witness_argument_counts_are_parse_errors(capsys, kind, forms):
    code, out = run(capsys, "witness", kind, "(seg w1)", *forms, "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "parse-error"
    assert payload["got"] == len(forms)
    assert kind in payload["message"]


# witness kind -> (construction, the forms after the tree): every witness kind
_GATED_WITNESSES = {
    "countably-closed": (topology.countably_closed_witness, ["(addr)", "(explicit)"]),
    "club": (topology.club_accumulation, ["(addr)", "(explicit)"]),
    "fu-extract": (topology.fu_extract, ["(explicit)", "(addr)"]),
    "maximality": (topology.maximality_witness, ["(cone (addr))"]),
    "roundtrip": (constructions.roundtrip_check, []),
    "disjoint-closures": (constructions.disjoint_closures,
                          ["(cone-set (addr))", "(cone-set (addr))"]),
    "separating-family": (classify.build_separating_family, ["(cone-set (addr))"]),
}


@pytest.mark.parametrize("kind", sorted(_GATED_WITNESSES))
def test_topology_witnesses_refuse_trees_outside_the_domain(capsys, kind):
    """Each construction, the round trip included, raises the error
    ``validate`` raises, before it answers or fails on its own, and the CLI
    exits 1 with that error."""
    fn, forms = _GATED_WITNESSES[kind]
    parse = {"(addr)": dsl.parse_address, "(explicit)": dsl.parse_set,
             "(cone-set (addr))": dsl.parse_set,
             "(cone (addr))": lambda x: [dsl.parse_open(x)]}
    args = [parse[f](dsl.read_sexpr(f)) for f in forms]
    for tree in OUTSIDE_THE_DOMAIN:
        d = dsl.parse_desc(dsl.read_sexpr(tree))
        with pytest.raises(WedgeTreeError) as want:
            validate(d)
        with pytest.raises(WedgeTreeError) as got:
            fn(d, *args)
        assert type(got.value) is type(want.value), tree
        assert str(got.value) == str(want.value), tree
        code, out = run(capsys, "witness", kind, tree, *forms, "--json")
        assert code == 1, tree
        assert json.loads(out)["error"] == want.value.code, tree


def test_not_closed_error_carries_its_escaping_sequence(capsys):
    code, out = run(capsys, "witness", "disjoint-closures", "(full 2 (+ w1 1))",
                    '(omega-family (addr (word "0" n) (child 1)))',
                    "(explicit (addr (child 1)))", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "not-closed"
    assert payload["which"] == "A"
    assert payload["limit"] == '(addr (word "0" w))'
    assert payload["sequence"].startswith("(seq (head (addr (child 0) (child 1))")
    assert payload["sequence"].endswith('(tail (addr (word "0" (lin 1 1)) (word "1" 1))))')


def test_error_details_outside_json_are_printed_as_text(capsys, monkeypatch):
    import wedgetree.cli as cli
    from wedgetree.errors import GapAddress
    from wedgetree.trees import Seg, resolve

    from helpers import W1, up

    node = resolve(Seg(W1), (up(W1),))

    def gap(desc, steps):
        raise GapAddress("a gap", node=node, consumed=1, payload=("here", node))

    monkeypatch.setattr(cli, "resolve", gap)
    for flags in (("--json",), ()):
        code, out = run(capsys, "resolve", "(seg w1)", "(addr (up w1))", *flags)
        assert code == 1
    code, out = run(capsys, "resolve", "(seg w1)", "(addr (up w1))", "--json")
    payload = json.loads(out)
    assert payload["error"] == "gap-address"
    assert payload["consumed"] == 1
    assert payload["payload"] == str(("here", node))


def test_witness_separating_family_verified_follows_its_checks(capsys, monkeypatch):
    import wedgetree.classify as classify
    from wedgetree.ordinals import ZERO
    from wedgetree.records import replace
    from wedgetree.trees import ancestor_at

    argv = ("witness", "separating-family", "(full 2 (+ w1 1))",
            '(explicit (addr (word "0" w1)) (addr (child 1)))', "--json")
    code, out = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["singletons"] == ['(addr (word "0" w1))']
    assert payload["verified"] is True
    real = classify.build_separating_family
    # the marker, at height 1, dropped with and without its singleton, and
    # moved down to the root
    changes = [
        lambda f: replace(f, markers={}),
        lambda f: replace(f, markers={}, singletons=()),
        lambda f: replace(f, markers={k: (s, ancestor_at(f.d, s, ZERO))
                                      for k, (s, _) in f.markers.items()}),
    ]
    for change in changes:
        monkeypatch.setattr(classify, "build_separating_family",
                            lambda d, S, change=change: change(real(d, S)))
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["verified"] is False


def test_witness_fu_extract_on_a_segment(capsys):
    code, out = run(capsys, "witness", "fu-extract", "(seg (+ w 1))",
                    "(omega-family (addr (up n)))", "(addr (up w))", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["sequence"].endswith("(tail (addr (up (lin 1 1)))))")


def test_witness_fu_extract_with_no_template_is_undecidable(capsys):
    # the picked members 0^(w*j+1) 1 carry a tail after an infinite scale
    code, out = run(capsys, "witness", "fu-extract", "(full 2 (+ (^ w 2) 2))",
                    '(omega-family (addr (word "0" (lin 0 w)) (child 0) (child 1)))',
                    '(addr (word "0" (^ w 2)))', "--json")
    assert code == 1
    assert json.loads(out)["error"] == "undecidable-tail"


def test_witness_fu_extract_verified_follows_its_recheck(capsys, monkeypatch):
    import wedgetree.topology as topology
    from wedgetree.records import replace

    argv = ("witness", "fu-extract", "(full 2 (+ w1 1))",
            '(omega-family (addr (word "0" n) (child 1)))', '(addr (word "0" w))',
            "--json")
    code, out = run(capsys, *argv)
    assert code == 0 and json.loads(out)["verified"] is True
    real = topology.fu_extract
    # a tail that stays at the root, and a head that starts outside A
    for change in ({"tail": topology.EventuallyConstant(())}, {"head": ((),)}):
        monkeypatch.setattr(topology, "fu_extract", lambda d, A, t, change=change:
                            replace(real(d, A, t), **change))
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["verified"] is False


def test_witness_disjoint_closures_verified_follows_its_recheck(capsys, monkeypatch):
    import wedgetree.constructions as constructions
    from wedgetree.records import replace
    from wedgetree.trees import Below

    from helpers import W1, word

    argv = ("witness", "disjoint-closures", "(full 2 (+ w1 1))",
            '(branch (addr (word "0" w1)))',
            "(explicit (addr (child 1)) (addr (child 1) (child 0)))", "--json")
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["verdict"] == "disjoint"
    assert json.loads(out)["verified"] is True
    real = constructions.disjoint_closures
    # the branch accumulates at the split point below its top and the
    # explicit points nowhere: no meet there, none at the root's split point
    # (which hat(d) lacks), and the branch does meet itself
    top_split = (word("0", W1), Below())
    changes = [lambda v, d, A: replace(v, kind="meet", at=top_split),
               lambda v, d, A: replace(v, kind="meet", at=(Below(),)),
               lambda v, d, A: replace(v, sets=(d, A, A))]
    for change in changes:
        monkeypatch.setattr(constructions, "disjoint_closures",
                            lambda d, A, B, change=change: change(real(d, A, B), d, A))
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["verified"] is False


@pytest.mark.parametrize("argv", [("classify",), ("resolve", "(addr)")],
                         ids=lambda argv: argv[0])
def test_classify_and_resolve_refuse_trees_outside_the_domain(capsys, argv):
    """With the witness kinds above, every command that takes a tree exits
    1 with the error ``validate`` raises on each tree outside the domain."""
    for tree in OUTSIDE_THE_DOMAIN:
        with pytest.raises(WedgeTreeError) as want:
            validate(dsl.parse_desc(dsl.read_sexpr(tree)))
        code, out = run(capsys, argv[0], tree, *argv[1:], "--json")
        assert code == 1, tree
        assert json.loads(out)["error"] == want.value.code, tree


@pytest.mark.parametrize("argv", [
    ("classify", "(seg (^ w w1))"), ("classify", "(full 2 (+ (^ w w1) 1))"),
    ("resolve", "(seg w1)", "(addr (up (^ w (+ w1 1))))"),
], ids=lambda argv: argv[-1])
def test_an_uncountable_exponent_is_a_parse_error(capsys, argv):
    code, out = run(capsys, *argv, "--json")
    assert code == 2
    assert json.loads(out)["error"] == "parse-error"


# -- fuzzing the command line ---------------------------------------------------
# Arguments come from a small grammar over the DSL heads, whose ordinals
# include uncountable exponents, and from the forms of the acceptance case
# tables, then take a few token-level edits.

_HEADS = ("seg", "full", "graft", "hat", "tilde", "addr", "up", "child", "word",
          "copy", "below", "explicit", "omega-family", "club", "branch",
          "cone-set", "union", "seq", "head", "tail", "const", "cone", "wedge",
          "cocone", "cdiff", "+", "*", "^", "lin", "n", "w", "w1", "0", "1",
          "2", '"0"', '"01"', "(", ")")
# each command that takes a tree -> the forms after the tree
_COMMAND_FORMS = {
    ("classify",): (), ("resolve",): ("ADDR",),
    ("witness", "countably-closed"): ("ADDR", "SET"), ("witness", "club"): ("ADDR", "SET"),
    ("witness", "fu-extract"): ("SET", "ADDR"), ("witness", "maximality"): ("OPEN", "OPEN"),
    ("witness", "disjoint-closures"): ("SET", "SET"),
    ("witness", "separating-family"): ("SET",), ("witness", "roundtrip"): (),
}


def _case_forms():
    """The trees, addresses and sets of the acceptance case tables, printed."""
    from helpers import (club_cases, disjoint_closure_cases, fu_cases,
                         separating_family_cases)
    trees, addrs, sets = [], [], []
    for d, t, S in club_cases():
        trees.append(d), addrs.append(t), sets.append(S)
    for _, d, t, A in fu_cases():
        trees.append(d), addrs.append(t), sets.append(A)
    for d, S in separating_family_cases():
        trees.append(d), sets.append(S)
    for d, A, B, _ in disjoint_closure_cases():
        trees.append(d), sets.extend((A, B))
    return {"DESC": OUTSIDE_THE_DOMAIN + [dsl.print_desc(d) for d in trees],
            "ADDR": [dsl.print_address(a) for a in addrs],
            "SET": [dsl.print_set(S) for S in sets]}


def _cli_argvs():
    from hypothesis import strategies as st

    ords = st.recursive(
        st.sampled_from(["0", "1", "2", "5", "w", "w1"]),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map("(+ %s %s)".__mod__),
            st.tuples(st.sampled_from(["2", "3"]), inner).map("(* %s %s)".__mod__),
            inner.map("(^ w %s)".__mod__)),
        max_leaves=4)
    cards = st.sampled_from(["1", "2", "w", "w1"])
    descs = st.recursive(
        st.one_of(ords.map("(seg %s)".__mod__),
                  st.tuples(st.sampled_from(["1", "2", "w"]), ords)
                  .map("(full %s %s)".__mod__)),
        lambda inner: st.one_of(
            inner.map("(hat %s)".__mod__), inner.map("(tilde %s)".__mod__),
            st.tuples(inner, inner, cards).map("(graft %s ((%s %s)))".__mod__)),
        max_leaves=3)
    steps = st.one_of(ords.map("(up %s)".__mod__),
                      st.sampled_from(["0", "1"]).map("(child %s)".__mod__),
                      st.tuples(st.sampled_from(['"0"', '"01"']), ords)
                      .map("(word %s %s)".__mod__),
                      st.just("(copy 0 1)"), st.just("(below)"))
    addrs = st.lists(steps, max_size=3).map(lambda s: "(addr %s)" % " ".join(s))
    sets = st.one_of(st.lists(addrs, max_size=2).map(lambda a: "(explicit %s)" % " ".join(a)),
                     addrs.map("(branch %s)".__mod__), addrs.map("(cone-set %s)".__mod__),
                     st.just('(omega-family (addr (word "0" n) (child 1)))'))
    opens = st.one_of(addrs.map("(cone %s)".__mod__), addrs.map("(cocone %s)".__mod__),
                      st.tuples(addrs, addrs).map("(wedge %s (%s))".__mod__))
    cases = _case_forms()
    grammar = {"DESC": descs, "ADDR": addrs, "SET": sets, "OPEN": opens}
    edits = st.lists(st.tuples(st.sampled_from(["drop", "dup", "swap", "put"]),
                               st.integers(0, 63), st.sampled_from(_HEADS)), max_size=3)

    @st.composite
    def form(draw, slot, edited):
        text = draw(st.one_of(grammar[slot],
                              st.sampled_from(cases.get(slot, ["(cone (addr))"]))))
        tokens = re.findall(r'[()]|"[^"]*"|[^\s()]+', text)
        for op, at, token in draw(edits) if edited else ():
            i = at % len(tokens) if tokens else 0
            if op == "drop" and tokens:
                del tokens[i]
            elif op == "dup" and tokens:
                tokens.insert(i, tokens[i])
            elif op == "swap" and i + 1 < len(tokens):
                tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
            elif op == "put":
                tokens.insert(i, token)
        return " ".join(tokens)

    @st.composite
    def argv(draw):
        command = draw(st.sampled_from(sorted(_COMMAND_FORMS)))
        slots = ("DESC",) + _COMMAND_FORMS[command]
        edited = draw(st.integers(0, len(slots) - 1))  # one form takes the edits
        forms = [draw(form(slot, i == edited)) for i, slot in enumerate(slots)]
        return list(command) + forms + draw(st.sampled_from([[], ["--json"]]))

    return argv()


def test_the_cli_answers_every_argument_list_with_an_exit_code():
    """``main`` returns 0, 1 or 2 and raises nothing on fuzzed arguments, and
    it returns 0 only on a tree ``validate`` accepts."""
    from hypothesis import given, settings

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_cli_argvs())
    def check(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 0:
            tree = argv[2] if argv[0] == "witness" else argv[1]
            validate(dsl.parse_desc(dsl.read_sexpr(tree)))

    check()
