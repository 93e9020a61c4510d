"""Flat key=value run-configuration files.

One assignment per line; `#` starts a comment, blank lines are skipped.
Dotted keys address nested preset parameters, e.g. `budget.xi1=0.986`.
The reserved keys `preset` and `seed` select the scenario and its seed;
everything else, `samples` and `oracle` included, is a parameter override.
"""

from __future__ import annotations


def parse_config_text(text: str, source: str = "<config>") -> dict:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ValueError(f"{source}:{lineno}: expected key=value, got {raw.strip()!r}")
        if key in entries:
            raise ValueError(f"{source}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read(), source=str(path))
