"""Importing the package pins BLAS and OpenMP to one thread before numpy
loads (see commdyn/__init__.py), so the suite computes the records the CLI
writes, and an environment that sets the thread variables keeps its values."""

import commdyn  # noqa: F401
