import random
import sys
from pathlib import Path

import pytest

from regdecode import load_model, train_ngram

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def m1():
    return load_model(FIXTURES / "m1.json")


@pytest.fixture(scope="session")
def m2():
    return load_model(FIXTURES / "m2.json")


@pytest.fixture(scope="session")
def m3():
    return load_model(FIXTURES / "m3.json")


@pytest.fixture(scope="session")
def m4():
    return load_model(FIXTURES / "m4.json")


@pytest.fixture(scope="session")
def beam_family():
    return load_model(FIXTURES / "beam_family.json")


def seeded_trigram_corpus(seed: int = 0) -> list[list[str]]:
    """3,000 lines of 10 tokens over 200; position i draws uniformly from its
    own slice of a seed-shuffled vocabulary, so a trigram context pins the
    position and exact search on the model has a real search space."""
    rng = random.Random(seed)
    tokens = [f"t{i:03d}" for i in range(200)]
    rng.shuffle(tokens)
    slices = [tokens[i * 20:(i + 1) * 20] for i in range(10)]
    return [[rng.choice(s) for s in slices] for _ in range(3000)]


@pytest.fixture(scope="session")
def seeded_trigram():
    """An add-0.1 trigram model trained on ``seeded_trigram_corpus(0)``."""
    return train_ngram(seeded_trigram_corpus(0), 3, 0.1)
