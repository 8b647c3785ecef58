"""Fixtures shared by the test modules."""
from __future__ import annotations

import pytest

import pal.training


@pytest.fixture
def fit_calls(monkeypatch):
    """The display name (``"PAL partner"``, ``"Mutual main"``, ...) of every
    stage that trains, in order: one entry per call of the training loop."""
    calls = []
    real_fit = pal.training._fit

    def recording(base, cfg, aug, stage, *rest):
        calls.append(stage.name)
        return real_fit(base, cfg, aug, stage, *rest)

    monkeypatch.setattr(pal.training, "_fit", recording)
    return calls
