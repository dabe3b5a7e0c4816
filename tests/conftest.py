"""Shared test configuration: the hypothesis profile.

The profile is derandomized so a given checkout always runs the same
examples, and has no deadline because some examples run long recursions.
"""

import hypothesis

hypothesis.settings.register_profile(
    "ci",
    deadline=None,
    max_examples=50,
    derandomize=True,
)
hypothesis.settings.load_profile("ci")
