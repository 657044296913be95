"""Exception types shared across the package.

Every error raised on bad user input derives from LozlabError so the
command line tool can map them to a single exit code, and so does
ContractError, which every broken internal contract raises.  A plain
assert is left only for invariants that hold by construction: the cell
counts and containments the region builders check, and the integer
value of macmahon_box.
"""


class LozlabError(Exception):
    """Base class for all user-facing errors."""


class ParameterError(LozlabError):
    """Region parameters are malformed or out of range."""


class HoleCollisionError(ParameterError):
    """A boundary hole overlaps the central core.

    Carries the offending hole indices in .ks.
    """

    def __init__(self, message, ks):
        super().__init__(message)
        self.ks = list(ks)


class SymmetryAbsentError(LozlabError):
    """The requested symmetry does not map the region to itself."""


class BudgetError(LozlabError):
    """A search visited more states than counting.SEARCH_STATE_CAP."""


class ContractError(LozlabError):
    """An input breaks a routine's contract, such as a graph reduction
    meeting a shape it cannot normalize."""


class FormulaRangeError(LozlabError):
    """A closed-form evaluation was requested outside its domain."""


class FormatError(LozlabError):
    """Serialized input violates the file format.

    .offset, when not None, is the byte offset of the first bad field.
    """

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset
