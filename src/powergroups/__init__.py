"""Groups whose elements are subsets of a group.

A family of nonempty subsets of a group G can itself form a group under the
induced product AB = {ab : a in A, b in B}.  This package enumerates every
such family over small finite carriers, classifies each one as a coset family
H/N when possible, and realizes the two classical infinite carriers where the
finite theory breaks: eventually periodic subsets of the integers and open
upper cuts of the rationals.

The natural entry points:

- ``group_from_name`` / ``validate_cayley`` build carriers;
- ``lattice_power_groups`` lists the subset families over one from its
  subgroup lattice, one coset family H/N per pair (H, N normal in H), and
  ``build_census`` turns them into records; ``all_power_groups`` finds the
  same families by an idempotent search and is kept as an oracle;
- ``match_subquotient`` / ``is_group_of_cosets`` classify a family;
- ``underlies`` asks whether one group occurs as a subset group of another;
- ``zsets`` and ``qcuts`` hold the exact integer-set and rational-cut models;
- ``suites.run_suite`` drives the named verification suites, also exposed by
  the ``powergroups`` command-line tool.

``zsets``, ``qcuts`` and ``run_suite`` are imported on first use, so importing
the finite core does not load the infinite-carrier models.
"""

import importlib

from .classify import (
    build_coset_group,
    coset_group_epimorphism_check,
    is_group_of_cosets,
    lattice_power_groups,
    match_subquotient,
)
from .groups import (
    group_from_name,
    iter_bits,
    normal_subgroups_of,
    subset,
    validate_cayley,
)
from .iso import matrix_is_transitive, matrix_to_csv, underlies, underlies_matrix
from .records import build_census, read_records, write_records
from .search import all_power_groups

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    # PEP 562: the names below load their module on first use.
    if name in ("qcuts", "zsets"):
        return importlib.import_module(f".{name}", __name__)
    if name == "run_suite":
        return importlib.import_module(".suites", __name__).run_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "all_power_groups",
    "build_census",
    "build_coset_group",
    "coset_group_epimorphism_check",
    "group_from_name",
    "is_group_of_cosets",
    "iter_bits",
    "lattice_power_groups",
    "match_subquotient",
    "matrix_is_transitive",
    "matrix_to_csv",
    "normal_subgroups_of",
    "qcuts",
    "read_records",
    "run_suite",
    "subset",
    "underlies",
    "underlies_matrix",
    "validate_cayley",
    "write_records",
    "zsets",
]
