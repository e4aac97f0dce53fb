"""Bundled example tables.

Two small real datasets ship with the package: a season of league football
statistics whose last column holds the points earned (the natural
reference), and word-usage profiles of parliament members with one member's
profile as the reference.
"""

from __future__ import annotations

from importlib import resources

from .core import DataTable
from .tableio import read_table


def _load(name: str, reference: str) -> DataTable:
    path = resources.files("srdkit.data") / name
    with resources.as_file(path) as real_path:
        table = read_table(real_path)
    return table.with_reference(reference)


def load_bundesliga() -> DataTable:
    """18 football teams by 7 game statistics plus season points ("pts")."""
    return _load("bundesliga.csv", "pts")


def load_mep() -> DataTable:
    """16 topic counts for 9 parliament members; "Rego" is the reference."""
    return _load("mep_profiles.csv", "Rego")
