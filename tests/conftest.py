"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` draws the same examples
on every run and prints the blob that reproduces a failure; without it
the default profile applies."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None,
                          print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
