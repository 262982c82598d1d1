"""Exception hierarchy shared by all modules.

Every error carries a stable machine-readable ``code`` so the CLI can emit
structured failures without string matching.
"""


class WedgeTreeError(Exception):
    code = "error"

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details

    def to_json(self):
        return {"error": self.code, "message": str(self), **self.details}


class OrdinalUnderflowError(WedgeTreeError, ArithmeticError):
    """Left subtraction a - b requested with a > b."""
    code = "underflow"


class OracleRangeError(WedgeTreeError, ValueError):
    """Ordinal outside the w^3 range of the explicit well-order oracle."""
    code = "oracle-range"


class SupNotRepresentable(WedgeTreeError):
    """A supremum left the representable fragment (e.g. w1*omega)."""
    code = "sup-not-representable"


class NotChainComplete(WedgeTreeError):
    """Description fails the compactness prerequisite: some chain lacks a
    supremum (equivalently the space is not compact Hausdorff)."""
    code = "not-chain-complete"


class BadBranching(WedgeTreeError, ValueError):
    """A full tree's branching is neither a positive integer nor w (a
    ValueError too, as it was before it had a code)."""
    code = "bad-branching"


class BadGraftBase(WedgeTreeError):
    """Graft base has no maximal nodes at its top level (height not a
    successor)."""
    code = "bad-graft-base"


class InvalidAddress(WedgeTreeError):
    code = "invalid-address"


class GapAddress(InvalidAddress):
    """Address names the missing supremum of an unbounded chain (a node that
    a level-removal deleted together with everything above it)."""
    code = "gap-address"

    def __init__(self, message, node=None, **details):
        super().__init__(message, **details)
        self.node = node


class UnsupportedAddress(InvalidAddress):
    """Address is outside the finitely-presentable fragment (e.g. a
    multi-letter word repeated transfinitely)."""
    code = "unsupported-address"


class IllegalWedge(WedgeTreeError):
    """Wedge exclusions are not immediate successors of a single node."""
    code = "illegal-wedge"


class PreconditionFailed(WedgeTreeError):
    code = "precondition-failed"


class UndecidableTailPattern(WedgeTreeError):
    """Conservative failure: the symbolic tail falls outside the decidable
    template fragment.  Never a wrong answer."""
    code = "undecidable-tail"


class NotAccumulating(WedgeTreeError):
    code = "not-accumulating"


class NotInClosure(WedgeTreeError):
    code = "not-in-closure"


class ChoiceUnavailable(WedgeTreeError):
    code = "choice-unavailable"


class NotClosed(WedgeTreeError):
    """Set is not closed in the countably coarse wedge topology; carries an
    escaping convergent sequence as witness."""
    code = "not-closed"

    def __init__(self, message, which=None, witness=None, **details):
        super().__init__(message, **details)
        self.which = which
        self.witness = witness

    def to_json(self):
        return {**super().to_json(), "which": self.which}


class HeightTooLarge(WedgeTreeError):
    code = "height-too-large"


class ParseError(WedgeTreeError):
    code = "parse-error"

    def __init__(self, message, position=None, **details):
        super().__init__(message, **details)
        self.position = position

    def to_json(self):
        return {**super().to_json(), "position": self.position}
