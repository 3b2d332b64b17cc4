"""Two-stack sorting, grid decompositions, and the bijections between
sortable permutations, restricted growth functions, and lattice paths.

Importing the package loads the library modules it re-exports, but not
the verify registry: ``run_checks`` loads ``checks`` on first access.
"""

from .errors import (
    InsertRejected,
    InvalidInputError,
    MalformedInputError,
    ResourceLimitError,
)
from .perms import (
    MU,
    MeshPattern,
    avoids,
    contains_classical,
    contains_mesh,
    parse_perm,
    standardize,
)
from .machine import (
    enumerate_sortable,
    is_sigma_sortable,
    s_sigma,
    sigma_stack_pass,
    stacksort,
    verify_characterizations,
)
from .grid import decompose, generate_sortable, structural_check
from .rgf import enumerate_avoiders, enumerate_rgfs, is_rgf, rgf_avoids, rgf_contains
from .bijections import (
    av321_to_rgf,
    dyck_path_to_rgf,
    labeled_motzkin_to_rgf,
    rgf_to_av321,
    rgf_to_dyck_path,
    rgf_to_labeled_motzkin,
    rgf_to_sortable,
    sortable_to_rgf,
    to_12231_avoider,
    to_12321_avoider,
)

__version__ = "0.1.0"

# the verify registry's scopes, read by the CLI parser without loading checks
_SCOPES = ("machine", "grid", "rgf", "bijections", "sequences")


def __getattr__(name: str):
    if name == "run_checks":
        from .checks import run_checks

        return run_checks
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "InsertRejected",
    "InvalidInputError",
    "MalformedInputError",
    "ResourceLimitError",
    "MU",
    "MeshPattern",
    "avoids",
    "contains_classical",
    "contains_mesh",
    "parse_perm",
    "standardize",
    "enumerate_sortable",
    "is_sigma_sortable",
    "s_sigma",
    "sigma_stack_pass",
    "stacksort",
    "verify_characterizations",
    "decompose",
    "generate_sortable",
    "structural_check",
    "enumerate_avoiders",
    "enumerate_rgfs",
    "is_rgf",
    "rgf_avoids",
    "rgf_contains",
    "av321_to_rgf",
    "dyck_path_to_rgf",
    "labeled_motzkin_to_rgf",
    "rgf_to_av321",
    "rgf_to_dyck_path",
    "rgf_to_labeled_motzkin",
    "rgf_to_sortable",
    "sortable_to_rgf",
    "to_12231_avoider",
    "to_12321_avoider",
    "run_checks",
    "__version__",
]
