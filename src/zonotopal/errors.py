"""Exception hierarchy.

``DomainError`` covers bad-but-legal inputs (CLI exit code 2); ``InternalError``
flags broken invariants that can only come from a bug (exit code 3).  Plain
``ValueError``/``ZeroDivisionError`` are used where Python convention expects
them.
"""


class DomainError(Exception):
    """Input outside the mathematical domain of the operation."""


class RankDeficient(DomainError):
    pass


class NotPointed(DomainError):
    pass


class NotInCone(DomainError):
    pass


class NotUnimodular(DomainError):
    pass


class NotShort(DomainError):
    pass


class HasColoop(DomainError):
    pass


class NotABasis(DomainError):
    pass


class TorsionUnsupported(DomainError):
    pass


class TorsionPivot(DomainError):
    pass


class NonMember(DomainError):
    pass


class SingularGram(DomainError):
    pass


class SamplesRequired(DomainError):
    pass


class DegenerateSample(DomainError):
    pass


class InternalError(Exception):
    """An invariant the implementation guarantees has failed."""


class NonIntegerResult(InternalError):
    pass
