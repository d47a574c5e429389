"""Shared test settings.

Property tests run a fixed, derandomized set of examples: the same
inputs on every run and machine, with no example database on disk.
"""

from hypothesis import settings

settings.register_profile("qmg", derandomize=True, database=None, max_examples=40, deadline=None)
settings.load_profile("qmg")
