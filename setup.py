"""Setuptools entry point.

The legacy ``setup.py`` path is kept because the reproduction environment
is offline: PEP 517 editable installs require the ``wheel`` package, which
is not available without network access.  ``pip install -e .`` works
through this file instead.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Techniques for Reducing the Connected-Standby "
        "Energy Consumption of Mobile Devices' (HPCA 2020): an ODRIPS "
        "platform power-management simulator"
    ),
    author="ODRIPS Reproduction Authors",
    license="MIT",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
)
