"""Exact plat calculus: braid words, plat closures, braid systems.

Everything is integer or polynomial arithmetic; no approximations.  The
main entry points are available here, each loaded from its module on
first use:

- braid words and the word problem: :mod:`platkit.words`
- Laurent polynomials and the bracket: :mod:`platkit.laurent`,
  :mod:`platkit.plats`
- the pairing-preserving (wicket) subgroup: :mod:`platkit.hilden`
- generalized stabilization: :mod:`platkit.stabilize`
- braid systems, slides, surface invariants: :mod:`platkit.systems`
- banded braids and the surface compiler: :mod:`platkit.bands`
- motion pictures and SVG export: :mod:`platkit.motion`
"""

import sys
from types import ModuleType

__version__ = "0.1.0"

# The exported names of each module, written once each.
_EXPORTS = {
    "bands": """
        AdmissibilityReport Band BandedBraid BraidedSurfacePlan Certificates
        PlanBand StripRecord admissibility_report band_surgery banded_from_json
        banded_from_obj banded_to_json banded_to_obj certificates_from_obj
        certificates_to_obj compile_surface plan_from_json plan_from_obj
        plan_to_json plan_to_obj realizing_euler_characteristic
        search_certificates stabilized_copy surgery_events
    """,
    "hilden": """
        HildenExpression expand_expression format_expression hilden_generators
        pair_permutation parse_expression preserves_pairing search_membership
        verify_membership
    """,
    "laurent": "A A_INV LOOP Laurent equal_up_to_unit",
    "motion": """
        BandMark MotionPicture Still motion_from_json motion_from_obj motion_svg
        motion_to_json motion_to_obj plan_motion plat_motion system_motion
    """,
    "plats": """
        DEFAULT_BRACKET_BUDGET Pairing PlatDiagram Triviality component_count
        kauffman_bracket pd_lines plat_closure triviality_check
    """,
    "stabilize": """
        MAX_STABILIZED_STRANDS StabilizationProfile pair_swap stabilization_tail
        stabilize stabilize_by_profile swap_chain
    """,
    "systems": """
        DEFAULT_SEARCH_BUDGET BraidSystem Entry HurwitzResult HurwitzStatus
        MonodromyEntry SurfaceType apply_slides as_monodromy boundary_braid
        branch_signs classify_degree_two entry_word hurwitz_search
        is_two_dimensional normal_euler_number plat_euler_characteristic
        ribbon_criterion slide staircase system_from_json system_from_obj
        system_to_json system_to_obj to_genuine_plat
    """,
    "words": """
        DEFAULT_FINGERPRINT_GUARD BraidWord BudgetError CertificateError
        Permutation artin_fingerprint braids_equal embed exponent_sum
        parse_braid product strand_permutation
    """,
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_OWNER)


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    # Importing a submodule binds it on the package.  The function
    # ``stabilize`` shares its name with its module; the export must win.
    def __setattr__(self, name: str, value: object) -> None:
        if not (name in _OWNER and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
