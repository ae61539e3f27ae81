"""Exception types raised across the package.

Everything derives from MdsRepairError so callers (and the CLI) can
distinguish domain errors from genuine bugs.  One check per kind of
argument: ``as_int`` for integers, ``as_node`` for node indices and
``x in field`` (``gf.FieldSpec.__contains__``) for field elements.  ``clip``
is the one bound on text a message quotes; ``short_repr`` clips a repr.
"""

import operator


class MdsRepairError(Exception):
    """Base class for all domain errors."""


# -- field construction / arithmetic ---------------------------------------

class NotIrreducible(MdsRepairError):
    """The defining polynomial factors over the base field."""


class NotPrimitive(MdsRepairError):
    """The defining polynomial is irreducible but its root does not
    generate the multiplicative group."""


class DivisionByZero(MdsRepairError, ZeroDivisionError):
    """Multiplicative inverse of the zero element requested."""


class ZeroVector(MdsRepairError):
    """A nonzero vector was required."""


# -- code construction ------------------------------------------------------

class DuplicateEvalPoints(MdsRepairError):
    """Reed-Solomon evaluation points must be distinct."""


class TooManySubsets(MdsRepairError):
    """MDS verification would enumerate more subsets than the guard allows."""


class LengthMismatch(MdsRepairError):
    """A message or codeword length does not match the code."""


# -- repair schemes ---------------------------------------------------------

class IncompatibleSubfield(MdsRepairError):
    """Requested subfield degree does not divide the code's parameters."""


class IncompatibleLift(MdsRepairError):
    """Lift factor does not divide the scheme's subfield degree."""


class ZeroReference(MdsRepairError):
    """The reference vector of a matrix realization must be nonzero."""


class DimensionMismatch(MdsRepairError):
    """Matrix or scheme dimensions are inconsistent with the code."""


class InvalidMatrix(MdsRepairError):
    """A repair matrix is structurally invalid (e.g. a zero column)."""


class InfeasibleScheme(MdsRepairError):
    """The scheme cannot regenerate the failed node (useful block not
    full rank)."""


# -- clique repair ----------------------------------------------------------

class NotTwoParity(MdsRepairError):
    """Clique repair applies only to codes with exactly two parities."""


class OddExtensionDegree(MdsRepairError):
    """Clique repair needs an even extension degree (a half-degree
    subfield)."""


class NotNormalized(MdsRepairError):
    """Clique repair expects the first parity column to be all ones."""


class CliqueBoundMissed(MdsRepairError):
    """A clique repair scheme is infeasible or misses its bandwidth bound."""


# -- search -----------------------------------------------------------------

class SearchSpaceTooLarge(MdsRepairError):
    """Exhaustive enumeration would exceed the search-space cap."""


class NoFeasibleFound(MdsRepairError):
    """Random search exhausted its sample budget without finding a
    feasible scheme (naive repair always remains available)."""


# -- files / CLI ------------------------------------------------------------

class ParseError(MdsRepairError):
    """A JSON input file is malformed or has the wrong schema."""


class MissingScheme(MdsRepairError):
    """A report was requested but no scheme files were found."""


def as_int(value, what: str) -> int:
    """value as an int; ParseError for bools, floats, strings and anything
    else that is not an integer (no silent coercion)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParseError(f"{what} must be an integer, got {short_repr(value)}")


def as_node(value, k: int, what: str = "node") -> int:
    """value as a node index in [1, k]: ParseError unless it is an integer
    (``as_int``), ValueError outside the range."""
    i = as_int(value, what)
    if not 1 <= i <= k:
        raise ValueError(f"{what} {i} not in [1,{k}]")
    return i


def short_repr(value) -> str:
    """repr(value), cut to at most 60 characters."""
    return clip(repr(value))


def clip(text: str) -> str:
    """text cut to at most 60 characters, the cut marked by "..."."""
    return text if len(text) <= 60 else text[:57] + "..."
