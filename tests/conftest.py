"""Hypothesis settings for the test suite.

With ``CI`` set (GitHub Actions sets it), the ``ci`` profile runs every
property test on a fixed sequence of examples and prints the reproduction
blob of any failure, so a failure seen in CI replays locally with
``CI=1 python -m pytest ...``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
