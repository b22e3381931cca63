"""Upper bounds for the homotopy depth of a polyhedron.

Two bound families are implemented.  The general rule needs the universal
cover: bound = sl(pi1) + sum over degrees i >= 2 of sl(H_i(cover)), and is
only applicable when every H_i(cover) is finitely generated.  The
two-dimensional rule works on ordinary homology: bound = sl(pi1) +
rank(H_2), and survives covers with infinitely generated homology, which is
exactly where the general rule dies.

``best_bound`` tries both, returns the smaller applicable bound, and keeps
the loser's value in the assumptions list; ``forced_bound`` runs the one
family a requested rule belongs to.  Inapplicability is data, not an
exception: when no rule applies the result is a ``NoBoundApplicable`` with
one recorded reason per attempted family.

``RULES`` lists the rule names: the two family names ``Thm4.1`` and
``Thm4.8`` and every corollary they select (``Cor-free-2dim``, ...).  They
are stable identifiers of the public interface; downstream tooling matches
on them.  This module is the only place that maps a fundamental-group
class to its rule.

Exact depth values are attached only when known: wedges of spheres carry the
closed-form depth (sum of the sphere counts, with capacity the product of
counts plus one), and the circle-cross-sphere family carries a recorded
constant.  Everything else gets an upper bound and no exactness claim.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .abelian import FgAbelianGroup, sl_abelian
from .errors import (
    DEFAULT_SEARCH_CAP,
    CdNotFinite,
    DimensionNotTwo,
    NotFinitelyGenerated,
    PolydepthError,
)
from .pi1 import (
    ElementaryAmenable,
    FgAbelian,
    Finite,
    Free,
    Pi1Descriptor,
    Trivial,
)
from .topology import (
    SpaceExpr,
    dim_of,
    homology,
    pi1_of,
    sphere_product_dims,
    sphere_wedge_counts,
    universal_cover_homology,
)

GENERAL_ASSUMPTIONS = ("H_i(cover) f.g.", "sl(π₁) finite")
TWO_DIM_ASSUMPTIONS = ("dim(P) = 2", "sl(π₁) finite")

_GENERAL_RULE = {
    Trivial: "Cor-simply",
    Finite: "Cor-finite",
    FgAbelian: "Cor-abelian",
    Free: "Cor-free",
    ElementaryAmenable: "Cor-amenable",
}
_TWO_DIM_RULE = {
    Trivial: "Thm4.8",
    Finite: "Thm4.8",
    FgAbelian: "Cor-abelian-2dim",
    Free: "Cor-free-2dim",
    ElementaryAmenable: "Cor-amenable-2dim",
}

WEDGE_PROVENANCE = "closed form: depth of a wedge of spheres is the sum of the sphere counts"
CIRCLE_CROSS_SPHERE_PROVENANCE = (
    "recorded exact value: the depth of S^1 x S^n (n >= 2) is 2"
)


def sl_of(descriptor: Pi1Descriptor, cap: int = DEFAULT_SEARCH_CAP) -> int:
    """Splitting length by descriptor class.

    ``cap`` only matters for ``Finite`` descriptors, where it limits the
    order of groups the subgroup search will accept.

    >>> sl_of(Trivial())
    0
    >>> sl_of(Free(2))
    2
    >>> sl_of(ElementaryAmenable(hirsch=3, cd_finite=True))
    3
    """
    if isinstance(descriptor, Trivial):
        return 0
    if isinstance(descriptor, Finite):
        from . import finitegroup

        return finitegroup.n1(descriptor.group, cap=cap).length
    if isinstance(descriptor, FgAbelian):
        return sl_abelian(descriptor.group)
    if isinstance(descriptor, Free):
        return descriptor.rank
    if isinstance(descriptor, ElementaryAmenable):
        if not descriptor.cd_finite:
            raise CdNotFinite(
                "splitting length of an elementary amenable group needs "
                "finite cohomological dimension"
            )
        return descriptor.hirsch
    raise TypeError(f"not a Pi1Descriptor: {descriptor!r}")


@dataclass(frozen=True)
class DepthBoundReport:
    applied_rule: str
    bound: int
    sl_pi1: int
    per_degree: dict[int, int]
    assumptions_used: tuple[str, ...]
    exact_depth: "int | None" = None
    provenance: "str | None" = None

    def __post_init__(self):
        total = self.sl_pi1 + sum(self.per_degree.values())
        if self.bound != total:
            raise ValueError(
                f"bound {self.bound} is not sl(pi1) plus the per-degree terms ({total})"
            )
        if self.exact_depth is not None and self.exact_depth > self.bound:
            raise ValueError(
                f"exact depth {self.exact_depth} exceeds the bound {self.bound}"
            )


@dataclass(frozen=True)
class NoBoundApplicable:
    """Structured inapplicability: one (rule family, reason) pair per
    attempted bound."""

    failures: tuple[tuple[str, str], ...]


def bound_general(space: SpaceExpr) -> DepthBoundReport:
    """Cover-based bound: sl(pi1) plus the splitting lengths of the cover's
    homology in degrees 2..dim."""
    descriptor = pi1_of(space)
    sl_pi1 = sl_of(descriptor)
    cover = universal_cover_homology(space)
    dim = dim_of(space)
    not_fg = [k for k, g in cover.groups.items() if g is None and 2 <= k <= dim]
    if not_fg:
        raise NotFinitelyGenerated(not_fg[0])
    # one term per degree; only the degrees where the cover has homology
    # cost a splitting length
    per_degree = dict.fromkeys(range(2, dim + 1), 0)
    for degree, group in cover.groups.items():
        if 2 <= degree <= dim:
            per_degree[degree] = sl_abelian(group)
    return DepthBoundReport(
        applied_rule=_GENERAL_RULE[type(descriptor)],
        bound=sl_pi1 + sum(per_degree.values()),
        sl_pi1=sl_pi1,
        per_degree=per_degree,
        assumptions_used=GENERAL_ASSUMPTIONS,
    )


def bound_2dim(space: SpaceExpr) -> DepthBoundReport:
    """Two-dimensional bound: sl(pi1) plus the rank of ordinary H_2; the top
    homology of a 2-complex is free, so rank captures the whole group."""
    dim = dim_of(space)
    if dim != 2:
        raise DimensionNotTwo(f"rule needs a 2-dimensional space, got dim {dim}")
    descriptor = pi1_of(space)
    sl_pi1 = sl_of(descriptor)
    rank = homology(space).group(2).free_rank
    return DepthBoundReport(
        applied_rule=_TWO_DIM_RULE[type(descriptor)],
        bound=sl_pi1 + rank,
        sl_pi1=sl_pi1,
        per_degree={2: rank},
        assumptions_used=TWO_DIM_ASSUMPTIONS,
    )


# family name -> (its bound, the rule it selects per pi1 class)
_FAMILIES = {
    "Thm4.1": (bound_general, _GENERAL_RULE),
    "Thm4.8": (bound_2dim, _TWO_DIM_RULE),
}
RULES = frozenset(_FAMILIES).union(*(rules.values() for _, rules in _FAMILIES.values()))


def _attempt(space: SpaceExpr, family: str) -> "DepthBoundReport | NoBoundApplicable":
    """Run one bound family; a domain error becomes its one recorded failure."""
    runner, _ = _FAMILIES[family]
    try:
        return runner(space)
    except PolydepthError as err:
        return NoBoundApplicable(failures=((family, f"{type(err).__name__}: {err}"),))


def forced_bound(space: SpaceExpr, rule: str) -> "DepthBoundReport | NoBoundApplicable":
    """The bound of the one family `rule` belongs to.  A family name accepts
    whichever rule its family selects; a corollary name must be the one the
    fundamental group's class selects, or the result is a failure saying so.

    >>> from polydepth import Sphere, wedge
    >>> forced_bound(wedge(Sphere(1), Sphere(2)), "Thm4.8").applied_rule
    'Cor-free-2dim'
    """
    for family, (_, rules) in _FAMILIES.items():
        if rule == family or rule in rules.values():
            break
    else:
        raise ValueError(f"unknown rule {rule!r}; known: {', '.join(sorted(RULES))}")
    report = _attempt(space, family)
    if isinstance(report, DepthBoundReport) and rule not in (family, report.applied_rule):
        reason = (
            f"requested rule {rule}, but the fundamental group "
            f"class selects {report.applied_rule}"
        )
        return NoBoundApplicable(failures=((family, reason),))
    return report


def _known_exact_depth(space: SpaceExpr) -> "tuple[int, str] | None":
    counts = sphere_wedge_counts(space)
    if counts is not None:
        return sum(counts.values()), WEDGE_PROVENANCE
    dims = sphere_product_dims(space)
    if dims is not None and len(dims) == 2 and sorted(dims)[0] == 1 and dims != [1, 1]:
        return 2, CIRCLE_CROSS_SPHERE_PROVENANCE
    return None


def best_bound(space: SpaceExpr) -> "DepthBoundReport | NoBoundApplicable":
    """Try both families and keep the smaller bound (the general rule on
    ties).  Domain errors become recorded failures; if both families fail,
    the result lists every failed hypothesis."""
    results = [_attempt(space, family) for family in _FAMILIES]
    attempts = [r for r in results if isinstance(r, DepthBoundReport)]
    if not attempts:
        return NoBoundApplicable(failures=tuple(f for r in results for f in r.failures))
    chosen = min(attempts, key=lambda r: r.bound)
    assumptions = chosen.assumptions_used
    if len(attempts) == 2:
        general, two_dim = attempts
        assumptions += (
            f"both rules apply: general bound {general.bound}, "
            f"2-dim bound {two_dim.bound}",
        )
    # replace() re-runs the report's checks, so an exact depth above the
    # bound fails loudly
    exact_depth, provenance = _known_exact_depth(space) or (None, None)
    return replace(
        chosen,
        assumptions_used=assumptions,
        exact_depth=exact_depth,
        provenance=provenance,
    )


@dataclass(frozen=True)
class WedgeDepthResult:
    """Exact depth and capacity of a wedge of spheres, with a witness chain
    of sub-wedges growing one sphere at a time."""

    depth: int
    capacity: int
    chain: tuple[tuple[tuple[int, int], ...], ...]


def wedge_exact_depth(r: dict[int, int]) -> WedgeDepthResult:
    """Closed-form depth and capacity for a wedge with r[n] spheres of
    degree n.

    >>> result = wedge_exact_depth({2: 2, 3: 1})
    >>> result.depth, result.capacity
    (3, 6)
    """
    counts: dict[int, int] = {}
    for degree, count in r.items():
        degree, count = int(degree), int(count)
        if degree < 1:
            raise ValueError(f"sphere degree must be >= 1, got {degree}")
        if count < 1:
            raise ValueError(f"sphere count must be >= 1, got {count}")
        counts[degree] = count
    depth = sum(counts.values())
    capacity = 1
    for count in counts.values():
        capacity *= count + 1
    chain: list[tuple[tuple[int, int], ...]] = [()]
    partial: dict[int, int] = {}
    for degree in sorted(counts):
        for _ in range(counts[degree]):
            partial[degree] = partial.get(degree, 0) + 1
            chain.append(tuple(sorted(partial.items())))
    return WedgeDepthResult(depth=depth, capacity=capacity, chain=tuple(chain))


def render_subwedge(counts: tuple[tuple[int, int], ...]) -> str:
    if not counts:
        return "1"
    parts = []
    for degree, count in counts:
        parts.extend([f"S^{degree}"] * count)
    return " v ".join(parts)


def report_to_json(report: "DepthBoundReport | NoBoundApplicable") -> dict:
    if isinstance(report, NoBoundApplicable):
        return {
            "rule": None,
            "bound": None,
            "failures": [
                {"rule": family, "reason": reason}
                for family, reason in report.failures
            ],
        }
    body = {
        "rule": report.applied_rule,
        "bound": report.bound,
        "sl_pi1": report.sl_pi1,
        "per_degree": {str(k): v for k, v in sorted(report.per_degree.items())},
        "assumptions": list(report.assumptions_used),
    }
    if report.exact_depth is not None:
        body["exact_depth"] = report.exact_depth
        body["provenance"] = report.provenance
    return body


def render_report(report: "DepthBoundReport | NoBoundApplicable") -> str:
    if isinstance(report, NoBoundApplicable):
        lines = ["no bound applicable"]
        lines.extend(
            f"  {family} failed: {reason}" for family, reason in report.failures
        )
        return "\n".join(lines)
    lines = [f"rule={report.applied_rule} bound={report.bound}"]
    lines.append(f"sl_pi1={report.sl_pi1}")
    for degree, value in sorted(report.per_degree.items()):
        lines.append(f"degree {degree}: {value}")
    for assumption in report.assumptions_used:
        lines.append(f"assumes: {assumption}")
    if report.exact_depth is not None:
        lines.append(f"exact_depth={report.exact_depth} ({report.provenance})")
    return "\n".join(lines)
