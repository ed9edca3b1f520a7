"""Hypothesis profiles for the suite.

`derandomized`, the default, seeds each property test from the test itself
and keeps no example database, so two runs of one tree draw the same
examples and take comparable time.  `randomized` draws afresh on every run;
select it with `python -m pytest --hypothesis-profile=randomized`, as the CI
job of that name does.  Neither profile changes any test's `max_examples`.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("randomized")
settings.load_profile("derandomized")
