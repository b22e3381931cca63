"""Rigorous upper bounds for the homotopy depth of finite polyhedra.

The pipeline: describe a space (sphere wedges/products or an explicit
chain complex with a fundamental-group descriptor), compute integer-exact
homology through Smith normal form, compute the splitting length of the
fundamental group (exhaustive subgroup search for finite groups, closed
forms otherwise), and combine them into a depth bound with the rule and
assumptions recorded.

>>> from polydepth import Sphere, best_bound, wedge
>>> best_bound(wedge(Sphere(1), Sphere(2))).bound
2

The package is a lazy namespace (PEP 562): ``import polydepth`` loads no
submodule, and each public name is read from the submodule that owns it
(``_EXPORTS``) on every access, which imports that submodule the first
time.  Nothing is cached here, so ``polydepth.X`` is always
``polydepth.<owner>.X``, also while a test or a tracer has replaced it
there.
"""

import importlib
import sys

__version__ = "0.1.0"

# owning submodule -> the public names it exports, in the order of __all__
_EXPORTS = {
    # integer linear algebra
    "intlinalg": (
        "IntMatrix",
        "SnfResult",
        "smith_normal_form",
        "invariant_factors",
        "rank",
        "determinant",
    ),
    # finitely generated abelian groups
    "abelian": (
        "FgAbelianGroup",
        "TRIVIAL_GROUP",
        "from_cyclic_factors",
        "from_boundary_maps",
        "sl_abelian",
        "direct_sum",
        "render_abelian",
        "parse_abelian",
    ),
    # finite groups and splitting lengths
    "finitegroup": (
        "FiniteGroup",
        "Subgroup",
        "SeriesResult",
        "Prop32Report",
        "DEFAULT_SEARCH_CAP",
        "all_subgroups",
        "subgroup_from_members",
        "is_normal",
        "is_complement",
        "is_retract",
        "restrict_to_subgroup",
        "n1",
        "n2",
        "n3",
        "verify_prop32",
        "describe_subgroup",
        "render_series",
        "parse_cayley_table",
        "format_cayley_table",
    ),
    # group catalog
    "catalog": (
        "catalog_names",
        "catalog_group",
        "catalog_abelian_factors",
        "cyclic",
        "dihedral",
        "dicyclic",
        "direct_product",
        "semidirect",
        "symmetric3",
        "alternating4",
        "pauli16",
    ),
    # fundamental-group descriptors
    "pi1": (
        "Pi1Descriptor",
        "Trivial",
        "Finite",
        "FgAbelian",
        "Free",
        "ElementaryAmenable",
        "free",
        "fg_abelian",
        "render_pi1",
        "pi1_to_json",
        "pi1_from_json",
    ),
    # spaces and homology
    "topology": (
        "ChainComplex",
        "Sphere",
        "Wedge",
        "Product",
        "Explicit",
        "wedge",
        "product",
        "dim_of",
        "HomologyProfile",
        "homology",
        "homology_of_complex",
        "universal_cover_homology",
        "pi1_of",
        "euler_characteristic",
        "poincare_polynomial",
        "render_profile",
        "profile_to_json",
        "profile_json_text",
        "space_to_json",
        "space_from_json",
        "complex_to_json",
        "complex_from_json",
        "EXAMPLE_COMPLEXES",
        "MAX_DIMENSION",
    ),
    # depth bounds
    "depth": (
        "sl_of",
        "DepthBoundReport",
        "NoBoundApplicable",
        "bound_general",
        "bound_2dim",
        "best_bound",
        "forced_bound",
        "RULES",
        "wedge_exact_depth",
        "WedgeDepthResult",
        "render_subwedge",
        "report_to_json",
        "render_report",
        "GENERAL_ASSUMPTIONS",
        "TWO_DIM_ASSUMPTIONS",
        "WEDGE_PROVENANCE",
        "CIRCLE_CROSS_SPHERE_PROVENANCE",
    ),
    # errors
    "errors": (
        "PolydepthError",
        "CompositionNotZero",
        "DimensionMismatch",
        "OrderExceedsCap",
        "DimensionExceedsCap",
        "UnsupportedConstruction",
        "NotFinitelyGenerated",
        "DimensionNotTwo",
        "CdNotFinite",
    ),
}

# public name -> the full name of the submodule that owns it
_OWNER = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # sys.modules first: import_module costs ten times as much once loaded
    module = sys.modules.get(owner) or importlib.import_module(owner)
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
