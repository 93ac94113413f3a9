"""Hypothesis profiles for the suite, and one import made ahead of time.

Tier-1 runs under Hypothesis's default profile. ``deep`` gives every test
that takes its example count from the profile, such as the statechart
reference fuzz, the reply-search fuzz, the decision plan's property and the
scene filter's properties, ten times as many examples; CI runs those under
it:

    PYTHONPATH=src python -m pytest tests/test_statechart_reference.py tests/test_json_extract.py tests/test_decision_plan.py::test_a_plain_list_and_the_plan_sequence_decide_alike tests/test_scene_filter.py --hypothesis-profile=deep

When a ``@given`` test fails, Hypothesis's pytest plugin imports
``hypothesis.extra._patching`` inside a report hook to write a patch. With
libcst installed that import warns ``mypy_extensions.TypedDict is
deprecated``, which ``filterwarnings = ["error"]`` turns into an error inside
the hook, and pytest stops the whole session with ``INTERNALERROR``. The
module is imported once here with that warning ignored, so the hook finds it
cached; every other warning, machina's own included, stays an error.
"""

import warnings

from hypothesis import settings

settings.register_profile("deep", max_examples=10 * settings.default.max_examples)

with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is an optional dependency of Hypothesis
        pass
