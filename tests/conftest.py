"""Shared test settings.

Property tests run a fixed, derandomized example sequence with no per-example
deadline, so a result never depends on the run or on the host's speed.
Each property test bounds its own example count.
"""

from hypothesis import settings

settings.register_profile("hearstream", deadline=None, derandomize=True, database=None)
settings.load_profile("hearstream")
