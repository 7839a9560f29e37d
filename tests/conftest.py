"""Shared fixtures for the IM-PIR reproduction test suite."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core.config import IMPIRConfig
from repro.pim.config import scaled_down_config
from repro.pir.database import Database

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(scope="session")
def tiny_db() -> Database:
    """A 64-record database for very fast unit tests."""
    return Database.random(64, record_size=16, seed=101)


@pytest.fixture(scope="session")
def small_db() -> Database:
    """A 1,024-record, 32-byte-record database (paper record format)."""
    return Database.random(1024, record_size=32, seed=202)


@pytest.fixture(scope="session")
def medium_db() -> Database:
    """A 4,096-record database for integration tests."""
    return Database.random(4096, record_size=32, seed=303)


@pytest.fixture()
def small_pim_config():
    """A scaled-down PIM platform (8 DPUs, 4 tasklets) for functional runs."""
    return scaled_down_config(num_dpus=8, tasklets=4)


@pytest.fixture()
def small_impir_config(small_pim_config) -> IMPIRConfig:
    """IM-PIR configuration on the scaled-down platform."""
    return IMPIRConfig(pim=small_pim_config)


@pytest.fixture(scope="session")
def load_example():
    """Imports ``examples/<name>.py`` as a module (examples are not a package)."""

    def load(name: str):
        path = EXAMPLES_DIR / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        return module

    return load
