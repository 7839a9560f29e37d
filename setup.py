"""Bare setuptools entry point; nothing here needs installing.

The repo ships no ``pyproject.toml`` or ``setup.cfg`` and this call declares no
metadata and no packages: the tests, the CLI and the benchmark all run from
the source tree with ``PYTHONPATH=src`` (see the README's quickstart).
"""

from setuptools import setup

setup()
