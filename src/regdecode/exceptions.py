"""Exception types shared across the package."""


class RegdecodeError(Exception):
    """Base class for all package errors."""


class ContractError(RegdecodeError, ValueError):
    """An argument violates a documented precondition."""


class VocabularyError(RegdecodeError, KeyError):
    """A token or id is not part of the vocabulary.

    A ``KeyError`` for callers that catch one, but printed as its message:
    ``KeyError.__str__`` would quote it."""

    __str__ = Exception.__str__


class ModelFormatError(RegdecodeError, ValueError):
    """A model file is malformed or violates normalization constraints."""


class SearchSpaceError(RegdecodeError, ValueError):
    """An exhaustive search was requested on a space above the safety guard."""


class NoHypothesisError(RegdecodeError, RuntimeError):
    """No complete hypothesis exists within the length budget."""
