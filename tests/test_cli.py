import json

import pytest

from wedgetree import topology
from wedgetree.cli import main
from wedgetree.ordinals import nat
from wedgetree.topology import Topology


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
