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
