"""Shared test configuration and helpers.

Hypothesis runs derandomized so the suite is reproducible byte for byte;
every other source of randomness in the tests is an explicit Random(seed).
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "repo",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")

