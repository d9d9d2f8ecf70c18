"""Test-wide settings.

Hypothesis runs derandomized and without an example database, so every run
tries the same examples and a failure reproduces from the commit alone.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
