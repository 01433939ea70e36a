"""Shared test configuration and helpers.

Hypothesis runs derandomized so the suite is reproducible byte for byte;
every other source of randomness in the tests is an explicit Random(seed).
"""

from hypothesis import HealthCheck, settings

from powergroups.groups import SubgroupMask, subset

settings.register_profile(
    "repo",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")


def subgroup_mask(g, members):
    """The SubgroupMask of a mask or of an iterable of element indices."""
    return SubgroupMask(g, subset(g, members).members)
