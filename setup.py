"""Setuptools entry point (the only packaging file; there is no
pyproject.toml).

The offline environment lacks the ``wheel`` package, so editable
installs use the legacy ``pip install -e . --no-use-pep517`` path.
numpy is the only runtime dependency.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# The one version lives in repro/__init__.py; read it without importing
# the package (numpy may not be installed yet).
INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "LMKG reproduction: learned cardinality estimation for "
        "knowledge graphs"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
)
