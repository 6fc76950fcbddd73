import sys
from pathlib import Path

import pytest

from regdecode import load_model

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
