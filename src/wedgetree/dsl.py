"""S-expression surface syntax.

Ordinals:      ORD  := NAT | w | w1 | (+ ORD ORD ...) | (* NAT ORD) | (^ w ORD)
Descriptions:  DESC := (seg ORD) | (full K ORD) | (graft DESC ((DESC CARD) ...))
                     | (hat DESC) | (tilde DESC)         with K := NAT | w
Addresses:     ADDR := (addr STEP ...)
               STEP := (up ORD) | (child NAT) | (word "LETTERS" ORD)
                     | (copy NAT NAT) | (below)
Templates use the parameter atom n: (lin ORD ORD) stands for BASE + SCALE*n
and a bare n abbreviates (lin 0 1); it may sit in any count/index slot.
Sets:          SET  := (explicit ADDR ...) | (omega-family ADDR)
                     | (club ADDR ADDR) | (branch ADDR) | (cone-set ADDR)
                     | (union SET ...)
Sequences:     SEQ  := (seq (head ADDR ...) (tail ADDR)) | (seq (head ...) (const ADDR))
Basic opens:   OPEN := (cone ADDR) | (wedge ADDR (ADDR ...)) | (cocone ADDR)
                     | (cdiff ADDR (ADDR ...))

Printing returns canonical forms that re-parse to equal values.  The set,
sequence and open specs are classes of ``topology``, which each function that
builds or reads them imports when called, so parsing a description or an
address never loads ``topology``.
"""

from __future__ import annotations

from .errors import ParseError
from .ordinals import (
    OMEGA, OMEGA1, ONE, ZERO, add, nat, omega_power, times_nat,
)
from .trees import (
    Below, Card, CARD_OMEGA, CARD_OMEGA1, Child, Copy, Full, Graft, HatOf,
    OMEGA_BRANCH, Seg, TildeOf, Up, Word,
)
from .series import Param, has_param


# -- tokenizer / reader --------------------------------------------------------

def _tokenize(text):
    out, i = [], 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            out.append((c, i))
            i += 1
        elif c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated string", position=i)
            out.append((text[i:j + 1], i))
            i = j + 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            out.append((text[i:j], i))
            i = j
    return out


def _read(tokens, k):
    if k >= len(tokens):
        raise ParseError("unexpected end of input", position=-1)
    tok, pos = tokens[k]
    if tok == "(":
        items = []
        k += 1
        while True:
            if k >= len(tokens):
                raise ParseError("missing )", position=pos)
            if tokens[k][0] == ")":
                return items, k + 1
            item, k = _read(tokens, k)
            items.append(item)
    if tok == ")":
        raise ParseError("unexpected )", position=pos)
    return tok, k + 1


def read_sexpr(text):
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", position=0)
    expr, k = _read(tokens, 0)
    if k != len(tokens):
        raise ParseError("trailing input", position=tokens[k][1])
    return expr


# -- ordinals -------------------------------------------------------------------

def parse_ordinal(x, allow_param=False):
    if isinstance(x, str):
        if x.isdigit():
            return nat(int(x))
        if x == "w":
            return OMEGA
        if x == "w1":
            return OMEGA1
        if allow_param and x == "n":
            return Param(ZERO, ONE)
        raise ParseError("not an ordinal atom: %s" % x)
    if not x:
        raise ParseError("empty ordinal form")
    head = x[0]
    if head == "+":
        out = parse_ordinal(x[1], allow_param)
        for arg in x[2:]:
            nxt = parse_ordinal(arg, allow_param)
            if isinstance(nxt, Param):
                if isinstance(out, Param):
                    raise ParseError("two parameters in one ordinal")
                out = Param(add(out, nxt.base), nxt.scale)
            elif isinstance(out, Param):
                raise ParseError("parameter must come last in a sum")
            else:
                out = add(out, nxt)
        return out
    if head == "*":
        # (* k ORD) is the k-fold sum ORD + ... + ORD, matching the canonical
        # sum-of-terms printing (the left product k*ORD would collapse terms)
        if len(x) != 3 or not isinstance(x[1], str) or not x[1].isdigit():
            raise ParseError("(* NAT ORD) expected")
        return times_nat(parse_ordinal(x[2]), int(x[1]))
    if head == "^":
        if len(x) != 3 or x[1] != "w":
            raise ParseError("(^ w ORD) expected")
        return omega_power(parse_ordinal(x[2]))
    if head == "lin" and allow_param:
        if len(x) != 3:
            raise ParseError("(lin BASE SCALE) expected")
        return Param(parse_ordinal(x[1]), parse_ordinal(x[2]))
    raise ParseError("not an ordinal form: %r" % (x,))


def print_ordinal(o):
    if isinstance(o, Param):
        if o.base == ZERO and o.scale == ONE:
            return "n"
        return "(lin %s %s)" % (print_ordinal(o.base), print_ordinal(o.scale))
    terms = []
    if o.omega1:
        terms.append("w1" if o.omega1 == 1 else "(* %d w1)" % o.omega1)
    for exp, coeff in o.terms:
        if exp.is_zero:
            terms.append(str(coeff))
            continue
        if exp == ONE:
            base = "w"
        else:
            base = "(^ w %s)" % print_ordinal(exp)
        terms.append(base if coeff == 1 else "(* %d %s)" % (coeff, base))
    if not terms:
        return "0"
    if len(terms) == 1:
        return terms[0]
    return "(+ %s)" % " ".join(terms)


# -- cards ------------------------------------------------------------------------

def parse_card(x):
    if isinstance(x, str):
        if x.isdigit():
            return Card.fin(int(x))
        if x == "w":
            return CARD_OMEGA
        if x == "w1":
            return CARD_OMEGA1
    raise ParseError("not a cardinal class: %r" % (x,))


def print_card(c):
    return str(c)


# -- descriptions -------------------------------------------------------------------

def parse_desc(x):
    if not isinstance(x, list) or not x:
        raise ParseError("not a description: %r" % (x,))
    head = x[0]
    if head == "seg":
        if len(x) != 2:
            raise ParseError("(seg ORD) expected")
        return Seg(parse_ordinal(x[1]))
    if head == "full":
        if len(x) != 3:
            raise ParseError("(full K ORD) expected")
        k = OMEGA_BRANCH if x[1] == "w" else (
            int(x[1]) if isinstance(x[1], str) and x[1].isdigit() else 0)
        if not k:
            raise ParseError("branching must be a positive NAT or w")
        return Full(k, parse_ordinal(x[2]))
    if head == "graft":
        if len(x) != 3 or not isinstance(x[2], list):
            raise ParseError("(graft DESC ((DESC CARD) ...)) expected")
        children = []
        for item in x[2]:
            if not isinstance(item, list) or len(item) != 2:
                raise ParseError("graft child must be (DESC CARD)")
            children.append((parse_desc(item[0]), parse_card(item[1])))
        return Graft(parse_desc(x[1]), tuple(children))
    if head == "hat":
        if len(x) != 2:
            raise ParseError("(hat DESC) expected")
        return HatOf(parse_desc(x[1]))
    if head == "tilde":
        if len(x) != 2:
            raise ParseError("(tilde DESC) expected")
        return TildeOf(parse_desc(x[1]))
    raise ParseError("unknown description form: %r" % (head,))


def print_desc(d):
    if isinstance(d, Seg):
        return "(seg %s)" % print_ordinal(d.eta)
    if isinstance(d, Full):
        k = "w" if d.k == OMEGA_BRANCH else str(d.k)
        return "(full %s %s)" % (k, print_ordinal(d.h))
    if isinstance(d, Graft):
        kids = " ".join("(%s %s)" % (print_desc(c), print_card(m))
                        for c, m in d.children)
        return "(graft %s (%s))" % (print_desc(d.base), kids)
    if isinstance(d, HatOf):
        return "(hat %s)" % print_desc(d.inner)
    if isinstance(d, TildeOf):
        return "(tilde %s)" % print_desc(d.inner)
    raise TypeError(d)


# -- addresses ------------------------------------------------------------------------

def _parse_letters(s):
    if not (s.startswith('"') and s.endswith('"')):
        raise ParseError("word letters must be a quoted string")
    body = s[1:-1]
    if "," in body:
        return tuple(int(p) for p in body.split(","))
    return tuple(int(ch) for ch in body)


def _print_letters(letters):
    if all(l < 10 for l in letters):
        return '"%s"' % "".join(str(l) for l in letters)
    return '"%s"' % ",".join(str(l) for l in letters)


def parse_address(x, allow_param=False):
    if not isinstance(x, list) or not x or x[0] != "addr":
        raise ParseError("not an address: %r" % (x,))
    steps = []
    for item in x[1:]:
        if not isinstance(item, list) or not item:
            raise ParseError("bad step: %r" % (item,))
        head = item[0]
        if head == "up":
            steps.append(Up(parse_ordinal(item[1], allow_param)))
        elif head == "child":
            arg = item[1]
            if allow_param and arg == "n":
                steps.append(Child(Param(ZERO, ONE)))
            elif isinstance(arg, list):
                parsed = parse_ordinal(arg, allow_param)
                steps.append(Child(parsed if isinstance(parsed, Param)
                                   else parsed.to_int()))
            else:
                steps.append(Child(int(arg)))
        elif head == "word":
            if len(item) != 3:
                raise ParseError('(word "LETTERS" ORD) expected')
            steps.append(Word(_parse_letters(item[1]),
                              parse_ordinal(item[2], allow_param)))
        elif head == "copy":
            if len(item) != 3:
                raise ParseError("(copy SLOT IDX) expected")
            idx = item[2]
            if allow_param and (idx == "n" or isinstance(idx, list)):
                steps.append(Copy(int(item[1]), parse_ordinal(idx, allow_param)))
            else:
                steps.append(Copy(int(item[1]), int(idx)))
        elif head == "below":
            steps.append(Below())
        else:
            raise ParseError("unknown step: %r" % (head,))
    return tuple(steps)


def print_address(steps):
    out = []
    for s in steps:
        if isinstance(s, Up):
            out.append("(up %s)" % print_ordinal(s.delta))
        elif isinstance(s, Child):
            if isinstance(s.i, Param):
                out.append("(child %s)" % print_ordinal(s.i))
            else:
                out.append("(child %d)" % s.i)
        elif isinstance(s, Word):
            out.append("(word %s %s)" % (_print_letters(s.letters),
                                         print_ordinal(s.count)))
        elif isinstance(s, Copy):
            if isinstance(s.idx, Param):
                out.append("(copy %d %s)" % (s.slot, print_ordinal(s.idx)))
            else:
                out.append("(copy %d %d)" % (s.slot, s.idx))
        elif isinstance(s, Below):
            out.append("(below)")
        else:
            raise TypeError(s)
    return "(addr%s)" % ("".join(" " + p for p in out))


# -- sets and sequences ------------------------------------------------------------------

def parse_set(x):
    from .topology import Branch, ClubFamily, ConeSet, Explicit, OmegaFamily, UnionSpec
    if not isinstance(x, list) or not x:
        raise ParseError("not a set spec: %r" % (x,))
    head = x[0]
    if head == "explicit":
        return Explicit(tuple(parse_address(a) for a in x[1:]))
    if head == "omega-family":
        if len(x) != 2:
            raise ParseError("(omega-family ADDR) expected")
        tpl = parse_address(x[1], allow_param=True)
        if not has_param(tpl):
            raise ParseError("family template needs the parameter n")
        return OmegaFamily(tpl)
    if head == "club":
        if len(x) != 3:
            raise ParseError("(club ANCHOR ADDR) expected")
        tpl = parse_address(x[2], allow_param=True)
        if not has_param(tpl):
            raise ParseError("family template needs the parameter n")
        return ClubFamily(parse_address(x[1]), tpl)
    if head == "branch":
        return Branch(parse_address(x[1]))
    if head == "cone-set":
        return ConeSet(parse_address(x[1]))
    if head == "union":
        return UnionSpec(tuple(parse_set(p) for p in x[1:]))
    raise ParseError("unknown set form: %r" % (head,))


def print_set(s):
    from .topology import Branch, ClubFamily, ConeSet, Explicit, OmegaFamily, UnionSpec
    if isinstance(s, Explicit):
        return "(explicit%s)" % "".join(" " + print_address(p) for p in s.points)
    if isinstance(s, OmegaFamily):
        return "(omega-family %s)" % print_address(s.template)
    if isinstance(s, ClubFamily):
        return "(club %s %s)" % (print_address(s.anchor), print_address(s.template))
    if isinstance(s, Branch):
        return "(branch %s)" % print_address(s.top)
    if isinstance(s, ConeSet):
        return "(cone-set %s)" % print_address(s.t)
    if isinstance(s, UnionSpec):
        return "(union%s)" % "".join(" " + print_set(p) for p in s.parts)
    raise TypeError(s)


def parse_seq(x):
    from .topology import EventuallyConstant, Indexed, SeqSpec
    if not isinstance(x, list) or not x or x[0] != "seq":
        raise ParseError("not a sequence spec: %r" % (x,))
    head, tail = (), None
    for item in x[1:]:
        if not isinstance(item, list) or not item:
            raise ParseError("bad sequence clause: %r" % (item,))
        if item[0] == "head":
            head = tuple(parse_address(a) for a in item[1:])
        elif item[0] == "tail":
            tail = Indexed(parse_address(item[1], allow_param=True))
        elif item[0] == "const":
            tail = EventuallyConstant(parse_address(item[1]))
        else:
            raise ParseError("unknown sequence clause: %r" % (item[0],))
    return SeqSpec(head=head, tail=tail)


def print_seq(s):
    from .topology import EventuallyConstant, Indexed
    parts = []
    if s.head:
        parts.append("(head%s)" % "".join(" " + print_address(a) for a in s.head))
    if isinstance(s.tail, Indexed):
        parts.append("(tail %s)" % print_address(s.tail.template))
    elif isinstance(s.tail, EventuallyConstant):
        parts.append("(const %s)" % print_address(s.tail.point))
    return "(seq %s)" % " ".join(parts)


def parse_open(x):
    from .topology import CDiff, Cone, ConeComplement, Wedge
    if not isinstance(x, list) or not x:
        raise ParseError("not a basic open: %r" % (x,))
    head = x[0]
    if head == "cone":
        return Cone(parse_address(x[1]))
    if head == "cocone":
        return ConeComplement(parse_address(x[1]))
    if head == "wedge":
        excluded = tuple(parse_address(a) for a in x[2]) if len(x) > 2 else ()
        return Wedge(parse_address(x[1]), excluded)
    if head == "cdiff":
        excluded = tuple(parse_address(a) for a in x[2]) if len(x) > 2 else ()
        return CDiff(parse_address(x[1]), excluded)
    raise ParseError("unknown open form: %r" % (head,))
