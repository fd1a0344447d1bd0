"""Setuptools entry point.

The project is fully described by ``pyproject.toml``; this shim exists so
that editable installs also work on older tooling stacks, and offline
without the ``wheel`` package (which ``pip install -e .`` needs) via
``python setup.py develop``.
"""

from setuptools import setup

setup()
