"""The package's only build configuration (there is no ``pyproject.toml``).

Nothing in the repository needs an install: the tests, benchmarks and
examples all run off ``PYTHONPATH=src``.  This file exists for environments
that want ``repro`` importable without that, through ``pip install -e .`` or
``python setup.py develop``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    description=(
        "Reproduction of 'SNOW Revisited: Understanding When Ideal READ Transactions Are Possible'"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
)
