"""Hypothesis draws the same examples on every run, so a failure reproduces."""

from collections import Counter

import pytest
from hypothesis import settings

from fewtag import losses

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def loss_calls(monkeypatch):
    """How many times each loss body ran during the test, by "context_context"
    and "context_label".  `mixed_loss` looks both losses up as globals of
    `fewtag.losses`, so wrapping them there counts every call."""
    calls = Counter()
    for key in ("context_context", "context_label"):
        body = getattr(losses, f"{key}_loss")

        def counted(*args, _key=key, _body=body):
            calls[_key] += 1
            return _body(*args)
        monkeypatch.setattr(losses, f"{key}_loss", counted)
    return calls
