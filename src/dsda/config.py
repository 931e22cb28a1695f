"""Plain key=value configuration files.

One ``key = value`` pair per line, ``#`` starts a comment.  Recognized
keys are the driver knobs (family, method, tol, max_iter,
column_budget, gamma, alpha, beta) and the matrix paths each family
needs (A, B, C, D, B_l, B_r, C_l, C_r, L_B).  Matrix paths are resolved
relative to the config file's directory.  Unknown keys are rejected --
in particular anything related to basis truncation, which this package
deliberately does not implement.
"""

from __future__ import annotations

import os

from .driver import SolveConfig
from .errors import ConfigError
from .problems import FAMILY_MATRIX_KEYS, MATRIX_KEYS, SHIFTS

_SCALAR_KEYS = ("family", "method", "tol", "max_iter", "column_budget",
                *SHIFTS)


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}' needs a number, got '{raw}'") from None


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key '{key}' needs an integer, got '{raw}'") from None


def load_config(path) -> tuple[SolveConfig, dict[str, str]]:
    """Parse a config file into a validated SolveConfig plus matrix paths."""
    cfg, paths, _ = read_config(path)
    return cfg, paths


def read_config(path) -> tuple[SolveConfig, dict[str, str], frozenset[str]]:
    """:func:`load_config` plus the driver keys the file sets, which tells
    a key set to its default value from one left unset."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _SCALAR_KEYS and key not in MATRIX_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
            if not value:
                raise ConfigError(f"{path}:{lineno}: key '{key}' has no value")
            values[key] = value

    if "family" not in values:
        raise ConfigError(f"{path}: missing required key 'family'")
    scalar_keys = frozenset(k for k in values if k in _SCALAR_KEYS)
    family = values.pop("family")
    if family not in FAMILY_MATRIX_KEYS:
        raise ConfigError(f"unknown family '{family}'")

    kwargs: dict = {"family": family}
    if "method" in values:
        kwargs["method"] = values.pop("method")
    if "tol" in values:
        kwargs["tol"] = _parse_float("tol", values.pop("tol"))
    if "max_iter" in values:
        kwargs["max_iter"] = _parse_int("max_iter", values.pop("max_iter"))
    if "column_budget" in values:
        kwargs["column_budget"] = _parse_int("column_budget",
                                             values.pop("column_budget"))
    for key in SHIFTS:
        if key in values:
            kwargs[key] = _parse_float(key, values.pop(key))

    base = os.path.dirname(os.path.abspath(path))
    paths = {key: os.path.join(base, values.pop(key))
             for key in list(values) if key in MATRIX_KEYS}
    assert not values, "key filter above is exhaustive"

    cfg = SolveConfig(**kwargs)
    cfg.validate()
    return cfg, paths, scalar_keys
