"""Flat key=value experiment configs.

One setting per line, `key = value`, '#' comments; values stay raw strings
and are coerced by typed getters.  The canonical form of a config is the
sorted JSON object of its raw entries; its SHA-256 prefix stamps every
output file so runs are diffable and reproducible.
"""

from __future__ import annotations

import hashlib
import json


class ConfigError(Exception):
    pass


class Config(dict):
    """Raw entries that record the keys looked up."""

    def __init__(self, entries=()):
        super().__init__(entries)
        self.read: set[str] = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def parse_config_text(text: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in cfg:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        cfg[key] = value
    return cfg


def load_config(path) -> dict[str, str]:
    with open(path) as fh:
        return parse_config_text(fh.read())


def canonical_json(cfg: dict[str, str]) -> str:
    return json.dumps(dict(sorted(cfg.items())), separators=(",", ":"))


def config_hash(cfg: dict[str, str]) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()[:16]


def _get(cfg, key, default, convert, what):
    raw = cfg.get(key)
    if raw is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return convert(raw)
    except (ValueError, TypeError):
        raise ConfigError(f"key {key!r}: expected {what}, got {raw!r}") from None


_REQUIRED = object()


def get_str(cfg, key, default=_REQUIRED) -> str:
    return _get(cfg, key, default, str, "string")


def get_int(cfg, key, default=_REQUIRED) -> int:
    return _get(cfg, key, default, int, "integer")


def get_float(cfg, key, default=_REQUIRED) -> float:
    return _get(cfg, key, default, float, "number")


def _get_list(cfg, key, default, item, what):
    def convert(raw: str) -> list:
        items = [s.strip() for s in raw.split(",") if s.strip()]
        if not items:
            raise ValueError(raw)
        return [item(s) for s in items]

    return _get(cfg, key, default, convert, f"comma-separated {what}")


def get_float_list(cfg, key, default=_REQUIRED) -> list[float]:
    return _get_list(cfg, key, default, float, "numbers")


def get_int_list(cfg, key, default=_REQUIRED) -> list[int]:
    return _get_list(cfg, key, default, int, "integers")


def get_str_list(cfg, key, default=_REQUIRED) -> list[str]:
    return _get_list(cfg, key, default, str, "names")
