from __future__ import annotations

from pathlib import Path

import pytest

from pfta.dsl import parse_model
from pfta.model import PftModel

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def model_text() -> str:
    return (DATA / "multiprocessor.pft").read_text()


@pytest.fixture(scope="session")
def model(model_text: str) -> PftModel:
    return parse_model(model_text)


@pytest.fixture(scope="session")
def listing_model(model_text: str) -> PftModel:
    """The shipped model with `S`'s inputs module-first, as the published
    stage-1 listing orders them."""
    declared = "S(i:T1) = or(P(i), MM(i), DM(i))"
    assert declared in model_text
    return parse_model(model_text.replace(declared, "S(i:T1) = or(MM(i), DM(i), P(i))"))
