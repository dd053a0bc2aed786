"""Test-suite settings shared by every module."""

from hypothesis import settings

# Property tests draw the same examples on every run, so a tier-1 failure
# always reproduces: no example database replays earlier failures, and no
# per-example deadline, because the first K0 call at a new precision also
# builds gamma.
settings.register_profile("expmath", derandomize=True, deadline=None, database=None)
settings.load_profile("expmath")
