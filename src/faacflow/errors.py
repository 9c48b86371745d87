"""Exception hierarchy shared across the toolkit.

The CLI maps these onto stable exit codes: ConfigError -> 2,
DataError -> 3, EvaluationError -> 4.
"""

from __future__ import annotations


class FaacflowError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(FaacflowError):
    """A configuration file or parameter set is invalid."""


class DataError(FaacflowError):
    """Input data violates a contract (bad rows, unmapped classes, schema mismatch)."""


class EvaluationError(FaacflowError):
    """An evaluation run failed; message carries (repetition, fold) context."""

