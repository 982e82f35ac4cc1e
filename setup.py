"""Setuptools configuration.

The offline environment used for this reproduction lacks the ``wheel``
package, so PEP-660 editable installs fail.  This setup lets
``pip install -e . --no-build-isolation --no-use-pep517`` fall back to the
legacy ``setup.py develop`` path.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="3.0.0",
    description=(
        "Reproduction of 'Sprout: a functional caching approach to minimize "
        "service latency in erasure-coded storage' (ICDCS 2016)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=[
        "numpy>=1.22",
        "scipy>=1.8",
    ],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            # The experiments CLI (same interface as
            # ``python -m repro.experiments``): --list, per-experiment
            # runs, --fault/--fault-param, --workload/--workload-param.
            "repro-experiments=repro.experiments.runner:main",
        ],
    },
)
