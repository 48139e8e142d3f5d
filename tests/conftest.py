"""Fixtures shared by the test modules."""

import pytest

from qbrownian import matsubara


@pytest.fixture
def tight(monkeypatch):
    """Hold the term-by-term sums' error bars to 1e-13 relative, a tenth of
    the library's fixed bar, for tests that check the sums' values."""
    monkeypatch.setattr(matsubara, "_REL_TAIL", 1e-13)
