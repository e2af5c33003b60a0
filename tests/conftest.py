"""Hypothesis settings for the test suite.

With ``CI`` set (GitHub Actions sets it), the ``ci`` profile runs every
property test on a fixed sequence of examples and prints the reproduction
blob of any failure, so a failure seen in CI replays locally with
``CI=1 python -m pytest ...``.

``python -m pytest --hypothesis-profile=fresh ...`` loads the ``fresh``
profile instead: new examples on every run, ten times as many as each
property asks for, and the reproduction blob of any failure, which
``@reproduce_failure`` replays.
"""

import os

from hypothesis import settings

FRESH_EXAMPLES = 10     # times each property's own max_examples under the fresh profile

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.register_profile("fresh", derandomize=False, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def pytest_collection_modifyitems(items):
    """Under the fresh profile, give each property ten times its own examples.

    A property's ``@settings`` fix its example count whatever the profile, so
    the count is scaled on the settings that ``@given`` reads at each call.
    """
    if settings.get_current_profile_name() != "fresh":
        return
    # Parametrized items share one test function: scale each function once.
    for test in {id(item.obj): item.obj for item in items if hasattr(item, "obj")}.values():
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None:
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=FRESH_EXAMPLES * own.max_examples)
