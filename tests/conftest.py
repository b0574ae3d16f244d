"""Hypothesis profiles: with CI set, examples are derandomized, so a failure
seen in CI replays locally under `CI=1 pytest`."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
