"""The package version is declared twice and must agree."""

from pathlib import Path

import pytest

import hbnoma

tomllib = pytest.importorskip("tomllib")  # Python 3.11+


def test_pyproject_version_matches_package():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == hbnoma.__version__
