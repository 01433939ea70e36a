"""Groups whose elements are subsets of a group.

A family of nonempty subsets of a group G can itself form a group under the
induced product AB = {ab : a in A, b in B}.  This package enumerates every
such family over small finite carriers, classifies each one as a coset family
H/N when possible, and realizes the two classical infinite carriers where the
finite theory breaks: eventually periodic subsets of the integers and open
upper cuts of the rationals.

The natural entry points:

- ``group_from_name`` / ``catalog`` / ``validate_cayley`` build carriers;
- ``lattice_power_groups`` lists the subset families over one from its
  subgroup lattice, one coset family H/N per pair (H, N normal in H), and
  ``build_census`` turns them into records; ``all_power_groups`` finds the
  same families by an idempotent search and is kept as an oracle;
- ``match_subquotient`` / ``is_group_of_cosets`` classify a family;
- ``underlies`` asks whether one group occurs as a subset group of another;
- ``zsets`` and ``qcuts`` hold the exact integer-set and rational-cut models;
- ``suites.run_suite`` drives the named verification suites, also exposed by
  the ``powergroups`` command-line tool.
"""

from . import qcuts, zsets
from .classify import (
    CosetGroupDescriptor,
    EpimorphismReport,
    NotCosetGroup,
    NotSubquotient,
    SubquotientDescriptor,
    build_coset_group,
    check_identity_subgroup,
    check_inverse_closure,
    check_partition_union_subgroup,
    coset_group_epimorphism_check,
    enumerate_subquotients,
    is_group_of_cosets,
    lattice_power_groups,
    match_subquotient,
)
from .errors import (
    CapExceededError,
    CayleyTableError,
    CommutationFailsError,
    HomomorphismFailsError,
    InternalFaultError,
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotClosedError,
    NotIdempotentError,
    NotRepresentableError,
    ParamOutOfRangeError,
    ParentMismatchError,
    UnknownFamilyError,
)
from .groups import (
    FiniteGroup,
    SubgroupMask,
    all_subgroups,
    catalog,
    direct_product,
    exponent,
    group_from_name,
    iter_bits,
    load_table_file,
    normal_subgroups_of,
    subgroup_lattice,
    validate_cayley,
)
from .iso import (
    GroupFingerprint,
    UnderliesWitness,
    are_isomorphic,
    fingerprint,
    matrix_is_transitive,
    matrix_to_csv,
    underlies,
    underlies_matrix,
)
from .records import CensusRecord, build_census, read_records, write_records
from .search import (
    LocalMonoid,
    PowerGroupFamily,
    all_power_groups,
    brute_force_power_groups,
    local_monoid,
    power_group_family,
    unit_group,
)
from .subsets import GroupSubset, all_idempotents, inverse_set, is_idempotent, subset, subset_product
from .suites import SUITES, SuiteCheck, run_suite

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "CayleyTableError",
    "CensusRecord",
    "CommutationFailsError",
    "CosetGroupDescriptor",
    "EpimorphismReport",
    "FiniteGroup",
    "GroupFingerprint",
    "GroupSubset",
    "HomomorphismFailsError",
    "InternalFaultError",
    "LocalMonoid",
    "NoIdentityError",
    "NoInverseError",
    "NotAssociativeError",
    "NotClosedError",
    "NotCosetGroup",
    "NotIdempotentError",
    "NotRepresentableError",
    "NotSubquotient",
    "ParamOutOfRangeError",
    "ParentMismatchError",
    "PowerGroupFamily",
    "SUITES",
    "SubgroupMask",
    "SubquotientDescriptor",
    "SuiteCheck",
    "UnderliesWitness",
    "UnknownFamilyError",
    "all_idempotents",
    "all_power_groups",
    "all_subgroups",
    "are_isomorphic",
    "brute_force_power_groups",
    "build_census",
    "build_coset_group",
    "catalog",
    "check_identity_subgroup",
    "check_inverse_closure",
    "check_partition_union_subgroup",
    "coset_group_epimorphism_check",
    "direct_product",
    "enumerate_subquotients",
    "exponent",
    "fingerprint",
    "group_from_name",
    "inverse_set",
    "is_group_of_cosets",
    "is_idempotent",
    "iter_bits",
    "lattice_power_groups",
    "load_table_file",
    "local_monoid",
    "match_subquotient",
    "matrix_is_transitive",
    "matrix_to_csv",
    "normal_subgroups_of",
    "power_group_family",
    "qcuts",
    "read_records",
    "run_suite",
    "subgroup_lattice",
    "subset",
    "subset_product",
    "underlies",
    "underlies_matrix",
    "unit_group",
    "validate_cayley",
    "write_records",
    "zsets",
]
