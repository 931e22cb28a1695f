"""Plain key=value configuration files.

One ``key = value`` pair per line, ``#`` starts a comment.  Recognized
keys are the settings of a run -- the family, the four solver knobs
(method, tol, max_iter, column_budget) and the shifts the family's
problem takes (gamma, alpha, beta) -- and the matrix paths each family
needs (A, B, C, D, B_l, B_r, C_l, C_r, L_B).  Matrix paths are resolved
relative to the config file's directory.  Unknown keys are rejected --
in particular anything related to basis truncation, which this package
deliberately does not implement.
"""

from __future__ import annotations

import dataclasses
import os

from .driver import SolveConfig
from .errors import ConfigError
from .problems import FAMILY_MATRIX_KEYS, MATRIX_KEYS, SHIFTS

#: Type of each setting; the names double as the CLI flag destinations.
SETTINGS = {"family": str, "method": str, "tol": float, "max_iter": int,
            "column_budget": int, **dict.fromkeys(SHIFTS, float)}

_KIND = {float: "a number", int: "an integer"}

_SOLVER_KEYS = tuple(f.name for f in dataclasses.fields(SolveConfig))


def _typed(key: str, raw: str):
    kind = SETTINGS[key]
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"key '{key}' needs {_KIND[kind]}, got '{raw}'") from None


def read_config(path) -> tuple[dict, dict[str, str]]:
    """Parse a config file into its settings and its matrix paths.

    The settings hold only the keys the file sets, already typed, so a
    key set to its default value is told from one left unset.  The
    family must be set; the solver knobs are validated here.
    """
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not valid UTF-8 text") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SETTINGS and key not in MATRIX_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        if not value:
            raise ConfigError(f"{path}:{lineno}: key '{key}' has no value")
        values[key] = value

    if "family" not in values:
        raise ConfigError(f"{path}: missing required key 'family'")
    if values["family"] not in FAMILY_MATRIX_KEYS:
        raise ConfigError(f"unknown family '{values['family']}'")
    settings = {key: _typed(key, value) for key, value in values.items()
                if key in SETTINGS}
    SolveConfig(**{key: settings[key] for key in _SOLVER_KEYS
                   if key in settings}).validate()
    base = os.path.dirname(os.path.abspath(path))
    paths = {key: os.path.join(base, value) for key, value in values.items()
             if key in MATRIX_KEYS}
    return settings, paths
