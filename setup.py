"""Setuptools entry point and the package's only metadata.

``pip install -e .`` installs the runtime (numpy); ``pip install -e .[test]``
adds what the tier-1 suite imports: pytest, hypothesis (property tests) and
pytest-benchmark (the ``benchmark`` fixture under ``benchmarks/``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "BBAL: Bidirectional Block Floating Point quantisation accelerator for LLMs "
        "(DAC 2025) - full Python reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21"],
    extras_require={"test": ["pytest", "hypothesis", "pytest-benchmark"]},
)
