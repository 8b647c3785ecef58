"""Fixtures shared by the test modules."""
from __future__ import annotations

import pytest

import pal.training


@pytest.fixture
def fit_calls(monkeypatch):
    """The display name (``"PAL partner"``, ``"Mutual main"``, ...) of every
    stage that trains, in order: one entry per call of the training loop."""
    calls = []
    real_train_stage = pal.training._train_stage

    def recording(stage, *rest):
        calls.append(stage.name)
        return real_train_stage(stage, *rest)

    monkeypatch.setattr(pal.training, "_train_stage", recording)
    return calls
