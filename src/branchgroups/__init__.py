"""Exact computation in finitely generated self-similar groups acting on
d-regular rooted trees, with finite-stage certificate machinery for
weakly-maximal-style subgroup constructions.

`import branchgroups` loads the word core only: `presets`, `tree` and
`words`.  The names re-exported from `quotients`, `subgroups` and
`construction` resolve in those modules on first access, and `hashlib` and
`json` load when a preset fingerprint is taken or a definition file is read
or written."""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .presets import (
    GroupPreset,
    builtin_preset,
    ggs_preset,
    grigorchuk_preset,
    gupta_sidki_preset,
    load_preset,
    save_preset,
    validate_preset,
)
from .tree import ROOT, InvalidDegreeError, format_vertex, level_vertices, parse_vertex, vertex_leq
from .words import BudgetExhausted, InfiniteOrder, Portrait, Word

__version__ = "0.1.0"

# Looked up on every access and never stored here: a wrapper swapped into
# the submodule is what the package hands out, and goes when it is removed.
_LAZY = {
    **dict.fromkeys((
        "StabChain", "conjugate_images", "full_level_group", "is_level_transitive",
        "point_stabilizer_words", "quotient_order", "subgroup_index_in_quotient",
    ), "quotients"),
    **dict.fromkeys((
        "NotInLevelStabilizerError", "SubgroupHandle", "conjugate_escaping",
        "enumerate_reduced_words", "fixed_tree", "in_rigid_stabilizer",
        "index_growth_profile", "minimal_non_fixing_level", "psi_sections",
    ), "subgroups"),
    **dict.fromkeys((
        "CertificateBuildError", "WMCertificate", "build_certificate",
        "fix_separation_witness", "iter_rist_elements",
        "level_trap_check", "parabolic_approximation", "transporter_word",
        "trap_subgroup", "validate_certificate",
    ), "construction"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__():
    return sorted({*globals(), *_LAZY})


# The names imported above, less the submodules those imports bind, and the lazy ones.
__all__ = sorted({*_LAZY, *(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)})
