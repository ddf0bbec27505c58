from setuptools import find_packages, setup

setup(
    name="lilac-repro",
    version="1.1.0",
    description=(
        "Reproduction of 'Parameterized Hardware Design with "
        "Latency-Abstract Interfaces' (Lilac, ASPLOS 2026): HDL, "
        "SMT-backed type checker, elaborator, RTL substrate, generator "
        "stand-ins, synthesis cost model, and the staged compiler driver."
    ),
    license="MIT",
    python_requires=">=3.9",
    packages=find_packages("src"),
    package_dir={"": "src"},
    entry_points={
        "console_scripts": [
            "repro = repro.driver.cli:main",
        ],
    },
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
        # The mega-lane vector simulation backend's kernels: without
        # numpy, building a vector engine raises SimBackendUnavailable
        # and sessions degrade --sim-backend vector to compiled.
        "vector": ["numpy"],
    },
)
