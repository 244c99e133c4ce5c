"""Hypothesis profiles for the property tests.

``tier1``, loaded by default, derandomizes every property test: each run
draws the same examples, so a pass or a failure repeats.  ``explore`` draws
fresh examples on every run and prints a reproduction blob for a failure;
select it with ``--hypothesis-profile=explore`` and run the ``hypothesis``
marked tests repeatedly to search a larger budget than tier-1 spends.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile("tier1")
