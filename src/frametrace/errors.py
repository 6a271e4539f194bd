"""Exception hierarchy for frametrace."""


class FrametraceError(Exception):
    """Base class for all frametrace errors."""


class DimensionMismatch(FrametraceError):
    """Operands have incompatible shapes or live on different groups."""


class NotHermitian(FrametraceError):
    """A Hermitian matrix was required."""


class NotInvertible(FrametraceError):
    """Eigenvalue floor violated; ``ratio`` is the deciding min/max eigenvalue ratio (0 if max <= 0)."""

    def __init__(self, message: str = "", ratio: float | None = None):
        super().__init__(message)
        self.ratio = ratio


class NotAFrame(NotInvertible):
    """The analyzed window does not generate a frame."""


class NotAGroup(FrametraceError):
    """Cayley table fails a group axiom; the message names the first one."""


class NotInvariant(FrametraceError):
    """A subspace or projection fails the required invariance."""


class UnsupportedGroup(FrametraceError):
    """No builtin irreducible representations for this group."""


class IrrepTableError(FrametraceError):
    """An irreducible-representation table failed validation."""


class NotHomomorphism(IrrepTableError):
    pass


class NotIrreducible(IrrepTableError):
    pass


class NotInequivalent(IrrepTableError):
    pass


class NotComplete(IrrepTableError):
    pass


class NotInRange(FrametraceError):
    """A vector is required to lie in the range of a projection."""


class ReferencePairNotAdmissible(FrametraceError):
    """The reference pair of a biorthogonality check is not admissible."""
