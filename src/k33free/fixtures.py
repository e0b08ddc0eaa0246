"""Bundled reference squares and rectangles.

Text files in the fixtures/ package directory use the core serialization
format; switching matrices are bare 0/1 rows.
"""

from __future__ import annotations

from importlib import resources

from .core import LatinRectangle, parse


def _read(name: str) -> str:
    return (resources.files("k33free") / "fixtures" / name).read_text()


def load(name: str) -> LatinRectangle:
    return parse(_read(f"{name}.txt"))
