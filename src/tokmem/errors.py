"""Exception types shared across the package.

The CLI maps these onto exit codes: config/input problems exit 2,
numeric failures during training exit 3.
"""

import json


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


def check_made_by(recorded: dict, made_by: dict, what: str, command: str) -> None:
    """ConfigError unless ``recorded`` holds each ``section: config`` of
    ``made_by`` as an object with every field of ``vars(config)``, value and
    type alike: ``<what> has `<section.field>` <found>, config has <expected>;
    run <command> again`` for the first that differs, values as JSON."""
    for section, config in made_by.items():
        found = recorded.get(section)
        if not isinstance(found, dict):
            raise ConfigError(f"{what} records no `{section}` section; run {command} again")
        for name, expected in vars(config).items():
            if name not in found:
                raise ConfigError(f"{what} records no `{section}.{name}`; run {command} again")
            if type(found[name]) is not type(expected) or found[name] != expected:
                raise ConfigError(f"{what} has `{section}.{name}` {json.dumps(found[name])}, "
                                  f"config has {json.dumps(expected)}; run {command} again")
