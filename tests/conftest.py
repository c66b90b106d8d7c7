"""Fixtures shared by the decoder test modules."""

import pytest

from dynexec import lookahead as lookahead_module
from dynexec import specdec as specdec_module


@pytest.fixture
def made_memos(monkeypatch):
    """Every `_RowMemo` a decode builds, kept for the test to inspect."""
    made = []

    class Recorded(specdec_module._RowMemo):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    for module in (specdec_module, lookahead_module):
        monkeypatch.setattr(module, "_RowMemo", Recorded)
    return made
