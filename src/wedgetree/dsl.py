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
    OMEGA, OMEGA1, ONE, ZERO, Ordinal, add, nat, omega_power, times_nat,
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


# -- form helpers ----------------------------------------------------------------

def _args(x, form, least, most=None):
    """The arguments of the list form ``x``: exactly ``least`` of them, or
    from ``least`` to ``most``; otherwise a ParseError quoting ``form``."""
    if not least <= len(x) - 1 <= (least if most is None else most):
        raise ParseError("%s expected" % form)
    return x[1:]


def _nat(x, form):
    """The NAT that the atom or finite ordinal ``x`` stands for; otherwise a
    ParseError quoting ``form``."""
    if isinstance(x, Ordinal):
        if x.is_finite:
            return x.to_int()
    elif isinstance(x, str) and x.isascii() and x.isdigit():
        return int(x)
    raise ParseError("%s expected, got %s" % (form, x))


# -- ordinals -------------------------------------------------------------------

def parse_ordinal(x, allow_param=False):
    if isinstance(x, str):
        if x == "w":
            return OMEGA
        if x == "w1":
            return OMEGA1
        if allow_param and x == "n":
            return Param(ZERO, ONE)
        return nat(_nat(x, "ordinal atom NAT, w or w1"))
    if not x:
        raise ParseError("empty ordinal form")
    head = x[0]
    if head == "+":
        first, *rest = _args(x, "(+ ORD ...)", 1, len(x))
        out = parse_ordinal(first, allow_param)
        for arg in rest:
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
        k, a = _args(x, "(* NAT ORD)", 2)
        return times_nat(parse_ordinal(a), _nat(k, "(* NAT ORD)"))
    if head == "^":
        base, e = _args(x, "(^ w ORD)", 2)
        if base != "w":
            raise ParseError("(^ w ORD) expected")
        return omega_power(parse_ordinal(e))
    if head == "lin" and allow_param:
        base, scale = _args(x, "(lin BASE SCALE)", 2)
        return Param(parse_ordinal(base), parse_ordinal(scale))
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
    if x == "w":
        return CARD_OMEGA
    if x == "w1":
        return CARD_OMEGA1
    return Card.fin(_nat(x, "cardinal class NAT, w or w1"))


def print_card(c):
    return str(c)


# -- descriptions -------------------------------------------------------------------

def parse_desc(x):
    if not isinstance(x, list) or not x:
        raise ParseError("not a description: %r" % (x,))
    head = x[0]
    if head == "seg":
        eta, = _args(x, "(seg ORD)", 1)
        return Seg(parse_ordinal(eta))
    if head == "full":
        k, h = _args(x, "(full K ORD)", 2)
        k = OMEGA_BRANCH if k == "w" else _nat(k, "branching NAT or w")
        if not k:
            raise ParseError("branching must be a positive NAT or w")
        return Full(k, parse_ordinal(h))
    if head == "graft":
        base, kids = _args(x, "(graft DESC ((DESC CARD) ...))", 2)
        if not isinstance(kids, list):
            raise ParseError("(graft DESC ((DESC CARD) ...)) expected")
        children = []
        for item in kids:
            if not isinstance(item, list) or len(item) != 2:
                raise ParseError("graft child must be (DESC CARD)")
            children.append((parse_desc(item[0]), parse_card(item[1])))
        return Graft(parse_desc(base), tuple(children))
    if head in ("hat", "tilde"):
        inner, = _args(x, "(%s DESC)" % head, 1)
        return (HatOf if head == "hat" else TildeOf)(parse_desc(inner))
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
    if not (isinstance(s, str) and s.startswith('"') and s.endswith('"')):
        raise ParseError("word letters must be a quoted string")
    body = s[1:-1]
    return tuple(_nat(p, "word letter NAT")
                 for p in (body.split(",") if "," in body else body))


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
            delta, = _args(item, "(up ORD)", 1)
            steps.append(Up(parse_ordinal(delta, allow_param)))
        elif head == "child":
            arg, = _args(item, "(child NAT)", 1)
            if isinstance(arg, list) or (allow_param and arg == "n"):
                arg = parse_ordinal(arg, allow_param)
            steps.append(Child(arg if isinstance(arg, Param)
                               else _nat(arg, "(child NAT)")))
        elif head == "word":
            letters, count = _args(item, '(word "LETTERS" ORD)', 2)
            steps.append(Word(_parse_letters(letters),
                              parse_ordinal(count, allow_param)))
        elif head == "copy":
            slot, idx = _args(item, "(copy SLOT IDX)", 2)
            if allow_param and (idx == "n" or isinstance(idx, list)):
                idx = parse_ordinal(idx, allow_param)
            else:
                idx = _nat(idx, "(copy SLOT IDX)")
            steps.append(Copy(_nat(slot, "(copy SLOT IDX)"), idx))
        elif head == "below":
            _args(item, "(below)", 0)
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
        tpl, = _args(x, "(omega-family ADDR)", 1)
        tpl = parse_address(tpl, allow_param=True)
        if not has_param(tpl):
            raise ParseError("family template needs the parameter n")
        return OmegaFamily(tpl)
    if head == "club":
        anchor, tpl = _args(x, "(club ANCHOR ADDR)", 2)
        tpl = parse_address(tpl, allow_param=True)
        if not has_param(tpl):
            raise ParseError("family template needs the parameter n")
        return ClubFamily(parse_address(anchor), tpl)
    if head in ("branch", "cone-set"):
        t, = _args(x, "(%s ADDR)" % head, 1)
        return (Branch if head == "branch" else ConeSet)(parse_address(t))
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
            tpl, = _args(item, "(tail ADDR)", 1)
            tail = Indexed(parse_address(tpl, allow_param=True))
        elif item[0] == "const":
            point, = _args(item, "(const ADDR)", 1)
            tail = EventuallyConstant(parse_address(point))
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
    if head in ("cone", "cocone"):
        t, = _args(x, "(%s ADDR)" % head, 1)
        return (Cone if head == "cone" else ConeComplement)(parse_address(t))
    if head in ("wedge", "cdiff"):
        t, *rest = _args(x, "(%s ADDR (ADDR ...))" % head, 1, 2)
        excluded = tuple(parse_address(a) for a in rest[0]) if rest else ()
        return (Wedge if head == "wedge" else CDiff)(parse_address(t), excluded)
    raise ParseError("unknown open form: %r" % (head,))
