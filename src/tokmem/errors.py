"""Exception types shared across the package.

The CLI maps these onto exit codes: config/input problems exit 2,
numeric failures during training exit 3.
"""


class ConfigError(ValueError):
    """A run-config file is invalid; the message names the offending field path."""


class DataFormatError(ValueError):
    """A manifest/blob file pair is inconsistent or corrupted."""


class NumericError(RuntimeError):
    """Training hit a non-finite loss or unstorable weights; carries a diagnostics dict."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def check_fields(values, rules, error=ValueError, label=str) -> None:
    """Raise ``error`` for the first ``(field, ok, bound)`` row of ``rules``
    whose ``ok`` is false: ``<label(field)> must be <bound>, got <value>``,
    the value read as ``values[field]``."""
    for field, ok, bound in rules:
        if not ok:
            raise error(f"{label(field)} must be {bound}, got {values[field]}")
