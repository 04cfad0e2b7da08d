"""Shared pytest fixtures; reference implementations and test data are in
``helpers.py``."""

import pytest

from helpers import TU_FIXTURE


@pytest.fixture
def tu_dir(tmp_path):
    """Directory holding the two-graph TU fixture under the name 'TINY'."""
    for suffix, text in TU_FIXTURE.items():
        (tmp_path / f"TINY_{suffix}").write_text(text)
    return tmp_path
