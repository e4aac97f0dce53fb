"""Shared fixtures: the two bundled datasets, the 4-row worked example, and
the published 8-fold cross-validation run recovered as a replay fixture.

The fold matrix fixture is parsed into exact decimal fractions because the
pairwise tests rank differences exactly; float parsing would perturb ties.
"""

import csv
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import srdkit as sk

DATA = Path(__file__).parent / "data"

# Original solution order of the football table (reference "pts" excluded).
SOLUTION_LABELS = (
    "Shots pg", "RY cards", "Possession%", "Pass",
    "Dribbles pg", "Offsides pg", "Fouls pg",
)

PUBLISHED_ORDER_1BASED = (3, 1, 4, 5, 6, 2, 7)
PUBLISHED_STATISTICS = (4, 29, 36, 6, 34, 36)
PUBLISHED_CATEGORIES = (
    "n.s.", "(p<0.1)", "(p<0.05*)", "n.s.", "(p<0.05*)", "(p<0.05*)",
)


@pytest.fixture(scope="session")
def bundesliga():
    return sk.load_bundesliga()


@pytest.fixture(scope="session")
def mep():
    return sk.load_mep()


@pytest.fixture(scope="session")
def srd_input():
    """The 4-row teaching table with its mixed-method reference attached."""
    table = sk.from_columns({"A": [2, 5, 7, 8], "B": [5, 1, 6, 10], "C": [6, 3, 2, 3]})
    return sk.create_reference(
        table, sk.ReferenceSpec("mixed", ("max", "min", "mean", "mean"))
    )


@pytest.fixture(scope="session")
def published_run_scheme():
    """Retained-row sets that reproduce the published fold matrix exactly."""
    test, scheme = sk.read_replay(DATA / "published_run_replay.csv")
    assert test == "wilcoxon" and scheme.k == 8
    assert {len(fold) for fold in scheme.folds} == {15}
    return scheme


def _read_fold_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle, delimiter=";"))
    header = rows[0][1:]
    return header, [row[1:] for row in rows[1:]]


@pytest.fixture(scope="session")
def published_folds_exact():
    """Published fold-SRD matrix as exact decimals, original solution order."""
    header, cells = _read_fold_csv(DATA / "published_run_fold_srd.csv")
    col_of = {label: j for j, label in enumerate(header)}
    return [
        [Fraction(row[col_of[label]]) for label in SOLUTION_LABELS] for row in cells
    ]


@pytest.fixture(scope="session")
def published_folds_float(published_folds_exact):
    return np.array([[float(x) for x in row] for row in published_folds_exact])


@pytest.fixture(scope="session")
def published_boxplot():
    """Published boxplot block: row name -> values in original solution order."""
    header, cells = _read_fold_csv(DATA / "published_run_boxplot.csv")
    col_of = {label: j for j, label in enumerate(header)}
    with open(DATA / "published_run_boxplot.csv", newline="", encoding="utf-8") as handle:
        names = [row.split(";")[0] for row in handle.read().splitlines()[1:]]
    return {
        name: np.array([float(row[col_of[label]]) for label in SOLUTION_LABELS])
        for name, row in zip(names, cells)
    }
