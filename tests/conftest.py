"""Hypothesis profiles for the suite.

Tier-1 runs under Hypothesis's default profile. ``deep`` gives every test
that takes its example count from the profile, such as the statechart
reference fuzz, ten times as many examples; CI runs the fuzz under it:

    PYTHONPATH=src python -m pytest tests/test_statechart_reference.py --hypothesis-profile=deep
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=10 * settings.default.max_examples)
