"""Setuptools build configuration.

Kept as a plain ``setup.py`` (there is no ``pyproject.toml``) so editable
installs work in offline environments whose setuptools cannot build PEP 517
editable wheels (no ``wheel`` package available):

    pip install -e . --no-build-isolation --no-use-pep517

Installing also provides the ``repro`` console script, equivalent to
``python -m repro.cli``.
"""

from pathlib import Path

from setuptools import find_packages, setup

_version = {}
exec((Path(__file__).parent / "src" / "repro" / "version.py").read_text(), _version)

setup(
    name="tasfar-repro",
    version=_version["__version__"],
    description=(
        "Reproduction of TASFAR (ICDE 2024): target-agnostic source-free "
        "domain adaptation for regression, with a multi-target runtime, a "
        "streaming adaptation subsystem, and a sharded serving gateway "
        "(typed request/envelope API, micro-batched prediction, JSON-lines "
        "front door)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
