from setuptools import find_packages, setup

setup(
    name="repro-wcet-date05",
    version="0.5.0",
    description="WCET and stack-usage verification by abstract "
                "interpretation (DATE 2005 reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # The sparse ILP engine (repro/ilp/) imports numpy unconditionally.
    install_requires=["numpy"],
    extras_require={
        # Everything the test suite needs, on every CI matrix leg:
        # hypothesis drives the fuzz matrices in
        # tests/test_random_programs.py and tests/test_ilp_sparse.py,
        # and scipy's linprog and milp are the external LP and ILP
        # oracles of tests/test_ilp.py.
        "test": ["pytest", "pytest-benchmark", "hypothesis", "scipy"],
    },
)
