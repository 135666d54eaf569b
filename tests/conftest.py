"""Test-session settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run, so a tier-1 result
# never depends on which inputs a particular run happened to try.
settings.register_profile("projlab", derandomize=True)
settings.load_profile("projlab")
