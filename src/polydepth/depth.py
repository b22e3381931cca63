"""Upper bounds for the homotopy depth of a polyhedron.

Two bound families are implemented.  The general rule needs the universal
cover: bound = sl(pi1) + sum over degrees i >= 2 of sl(H_i(cover)), and is
only applicable when every H_i(cover) is finitely generated.  The
two-dimensional rule works on ordinary homology: bound = sl(pi1) +
rank(H_2), and survives covers with infinitely generated homology, which is
exactly where the general rule dies.  H_2 of a 2-complex is ker d_2, free,
so its rank is read as c_2 - rank d_2 (`topology._top_free_rank`): of an
explicit complex only d_2 is reduced.

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

``best_bound`` also counts a lower bound, the length of a chain of
retracts that collapses one leaf of the expression at a time
(`_retract_chain_length`, proved there).  Where it meets the chosen bound
the depth is exact, and the report carries it with
``RETRACT_CHAIN_PROVENANCE``; everything else gets an upper bound and no
exactness claim.  An exact depth holds under the bound's own assumptions:
a declared pi1 or cover is trusted, so a false one can make both numbers
false.  A lower bound above the upper bound proves the declaration false,
and the space is refused as malformed input (ValueError).
"""

from __future__ import annotations

from typing import Iterator, Union

from .abelian import FgAbelianGroup, sl_abelian
from .errors import (
    DEFAULT_SEARCH_CAP,
    CdNotFinite,
    DimensionNotTwo,
    NotFinitelyGenerated,
    PolydepthError,
    Record,
    _check_int,
    _set,
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
    _SPHERE_ONLY,
    Explicit,
    SpaceExpr,
    Sphere,
    Wedge,
    _Degrees,
    _degree_chunks,
    _json_chunks,
    _plain,
    _top_free_rank,
    dim_of,
    euler_characteristic,
    homology_of_complex,
    pi1_of,
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

# the homology of a point: an explicit complex with it has H~ = 0
_POINT_GROUPS = {0: FgAbelianGroup(free_rank=1)}

RETRACT_CHAIN_PROVENANCE = (
    "retract chain: collapsing one leaf with nonzero reduced homology at a "
    "time meets the bound"
)


def sl_of(descriptor: Pi1Descriptor, cap: int = DEFAULT_SEARCH_CAP) -> int:
    """Splitting length by descriptor class.

    ``cap`` only matters for ``Finite`` descriptors: a group of larger order
    raises ``OrderExceedsCap``, whether its table commutes or not.  A
    commuting table is read as its primary decomposition
    (``finitegroup.primary_decomposition``), whose summand count is sl, as
    for any finite abelian group; no subgroup is enumerated.  Any other
    table runs the ``n1`` search.

    >>> sl_of(Trivial())
    0
    >>> sl_of(Free(2))
    2
    >>> sl_of(ElementaryAmenable(hirsch=3, cd_finite=True))
    3
    >>> from polydepth.catalog import catalog_group
    >>> sl_of(Finite(catalog_group("Z2xZ6")))
    3
    """
    if isinstance(descriptor, Trivial):
        return 0
    if isinstance(descriptor, Finite):
        from . import finitegroup

        group = descriptor.group
        finitegroup._check_cap(group.order, cap)
        primary = finitegroup.primary_decomposition(group)
        if primary is not None:
            return sl_abelian(primary)
        return finitegroup.n1(group, cap=cap).length
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


class DepthBoundReport(Record):
    """A bound sl(pi1) + sum of one term per degree 2..dim, stored sparse:
    ``terms`` maps a degree to its term and holds only the nonzero ones, in
    ascending order; ``per_degree`` is the dense view, one entry per degree
    2..dim, built on request."""

    __slots__ = (
        "applied_rule", "bound", "sl_pi1", "dim", "terms", "assumptions_used", "exact_depth",
        "provenance",
    )

    def __init__(
        self, applied_rule: str, bound: int, sl_pi1: int, dim: int, terms: dict[int, int],
        assumptions_used: tuple[str, ...], exact_depth: int | None = None,
        provenance: str | None = None,
    ):
        for degree, term in terms.items():
            if not 2 <= degree <= dim:
                raise ValueError(f"term degree {degree} is outside 2..{dim}")
            if not term:
                raise ValueError(f"term in degree {degree} is zero; only nonzero terms are stored")
        total = sl_pi1 + sum(terms.values())
        if bound != total:
            raise ValueError(f"bound {bound} is not sl(pi1) plus the per-degree terms ({total})")
        if exact_depth is not None and exact_depth > bound:
            raise ValueError(f"exact depth {exact_depth} exceeds the bound {bound}")
        _set(self, "applied_rule", applied_rule)
        _set(self, "bound", bound)
        _set(self, "sl_pi1", sl_pi1)
        _set(self, "dim", dim)
        _set(self, "terms", {k: terms[k] for k in sorted(terms)})
        _set(self, "assumptions_used", assumptions_used)
        _set(self, "exact_depth", exact_depth)
        _set(self, "provenance", provenance)

    @property
    def per_degree(self) -> dict[int, int]:
        """Every term, one per degree 2..dim, zeros included."""
        return {k: self.terms.get(k, 0) for k in range(2, self.dim + 1)}


class NoBoundApplicable(Record):
    """Structured inapplicability: one (rule family, reason) pair per
    attempted bound."""

    __slots__ = ("failures",)

    def __init__(self, failures: tuple[tuple[str, str], ...]):
        _set(self, "failures", failures)


def bound_general(space: SpaceExpr) -> DepthBoundReport:
    """Cover-based bound: sl(pi1) plus the splitting lengths of the cover's
    homology in degrees 2..dim."""
    return _general(space, dim_of(space), None)


def bound_2dim(space: SpaceExpr) -> DepthBoundReport:
    """Two-dimensional bound: sl(pi1) plus the rank of ordinary H_2; the top
    homology of a 2-complex is ker d_2, free, so rank captures the whole
    group, and it is read as c_2 - rank d_2, with d_1 never reduced."""
    return _two_dim(space, dim_of(space), None)


def _pi1_or_refusal(space: SpaceExpr) -> Pi1Descriptor | PolydepthError:
    """pi1 of `space`, or the domain error that refused it: read once per
    `best_bound`, for both families."""
    try:
        return pi1_of(space)
    except PolydepthError as err:
        return err


# what a family is given for pi1: the descriptor or refusal that
# `best_bound` read for both families, or None when one family runs alone
_Pi1Read = Union[Pi1Descriptor, PolydepthError, None]


def _descriptor(space: SpaceExpr, pi1: _Pi1Read) -> Pi1Descriptor:
    """The descriptor a family runs on, once its own earlier checks have
    passed: read here when `pi1` is None, so not at all when the family
    fails first.  A refusal raises."""
    if pi1 is None:
        return pi1_of(space)
    if isinstance(pi1, PolydepthError):
        raise pi1
    return pi1


def _general(space: SpaceExpr, dim: int, pi1: _Pi1Read) -> DepthBoundReport:
    pi1 = _descriptor(space, pi1)
    sl_pi1 = sl_of(pi1)
    cover = universal_cover_homology(space)
    not_fg = [k for k, g in cover.groups.items() if g is None and 2 <= k <= dim]
    if not_fg:
        raise NotFinitelyGenerated(not_fg[0])
    # only the degrees where the cover has homology carry a term
    terms = {k: sl_abelian(g) for k, g in cover.groups.items() if 2 <= k <= dim}
    return DepthBoundReport(
        applied_rule=_GENERAL_RULE[type(pi1)],
        bound=sl_pi1 + sum(terms.values()),
        sl_pi1=sl_pi1,
        dim=dim,
        terms=terms,
        assumptions_used=GENERAL_ASSUMPTIONS,
    )


def _two_dim(space: SpaceExpr, dim: int, pi1: _Pi1Read) -> DepthBoundReport:
    if dim != 2:
        raise DimensionNotTwo(f"rule needs a 2-dimensional space, got dim {dim}")
    pi1 = _descriptor(space, pi1)
    sl_pi1 = sl_of(pi1)
    rank = _top_free_rank(space)
    return DepthBoundReport(
        applied_rule=_TWO_DIM_RULE[type(pi1)],
        bound=sl_pi1 + rank,
        sl_pi1=sl_pi1,
        dim=2,
        terms={2: rank} if rank else {},
        assumptions_used=TWO_DIM_ASSUMPTIONS,
    )


# family name -> (its bound on (space, dim, pi1), the rule it selects per pi1
# class); a refused pi1 read fails a family only where it needs pi1, after
# its own earlier checks
_FAMILIES = {
    "Thm4.1": (_general, _GENERAL_RULE),
    "Thm4.8": (_two_dim, _TWO_DIM_RULE),
}
RULES = frozenset(_FAMILIES).union(*(rules.values() for _, rules in _FAMILIES.values()))


def _attempt(
    space: SpaceExpr, family: str, dim: int, pi1: _Pi1Read
) -> "DepthBoundReport | NoBoundApplicable":
    """Run one bound family; a domain error becomes its one recorded failure."""
    runner, _ = _FAMILIES[family]
    try:
        return runner(space, dim, pi1)
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
    report = _attempt(space, family, dim_of(space), None)
    if isinstance(report, DepthBoundReport) and rule not in (family, report.applied_rule):
        reason = (
            f"requested rule {rule}, but the fundamental group "
            f"class selects {report.applied_rule}"
        )
        return NoBoundApplicable(failures=((family, reason),))
    return report


def _retract_chain_length(space: SpaceExpr) -> int:
    """lb(space), a lower bound on depth: the number of leaves, spheres and
    explicit complexes with nonzero reduced homology H~, counted with
    multiplicity; a wedge or a product adds its parts'.

    Proof that depth(P) >= lb(P).  Depth (K. Borsuk, Theory of Shape, 1975)
    is the length of the longest chain of homotopy types, each dominated by
    the one before and not dominating it.  Replace one leaf L by a point.
    In a wedge, L v Y -> Y collapses L; in a product, L x Y -> Y projects;
    the inclusion at the base point is a section of each, and a retraction
    of a part extends over every enclosing wedge and product.  So each step
    is dominated by the one before, and its homology is a direct summand:
    H(before) = H(after) + K.  K is not 0: a wedge adds reduced homology,
    so K holds H~(L); in a product K holds H~(L) (x) H_0(rest), H_0 of a
    nonempty space is free and not 0, and Kunneth is natural (Hatcher,
    Algebraic Topology, 3.B).  The step cannot be reversed: if the space
    after dominated the one before, each homology would be a summand of the
    other, and finitely generated abelian groups that are summands of each
    other are isomorphic (compare free ranks and the number of Z/p^k
    summands), against K != 0.  Collapsing the lb leaves one at a time
    gives a chain of lb strict steps.

    A wedge or product of spheres alone is counted in one C-level type
    scan.  An explicit complex is settled by its Euler characteristic: the
    point's homology has chi = 1, so chi != 1 means H~ != 0, and only a
    complex with chi = 1 is reduced.

    >>> from polydepth import product, wedge
    >>> _retract_chain_length(product(Sphere(1), wedge(Sphere(2), Sphere(3))))
    3
    """
    if isinstance(space, Sphere):
        return 1
    if isinstance(space, Explicit):
        complex_ = space.complex
        if euler_characteristic(complex_) != 1:
            return 1
        return int(homology_of_complex(complex_).groups != _POINT_GROUPS)
    parts = space.parts if isinstance(space, Wedge) else space.factors
    if _SPHERE_ONLY.issuperset(map(type, parts)):
        return len(parts)
    return sum(map(_retract_chain_length, parts))


def best_bound(space: SpaceExpr) -> "DepthBoundReport | NoBoundApplicable":
    """Try both families and keep the smaller bound (the general rule on
    ties).  Domain errors become recorded failures; if both families fail,
    the result lists every failed hypothesis.  pi1 is read once, before
    either family runs, and both take its descriptor or its refusal.

    The depth is exact where the retract-chain lower bound
    (`_retract_chain_length`) meets the chosen bound.  A lower bound above
    it refuses the space (ValueError): lb reads homology alone, so the
    declared pi1 or cover is false."""
    dim, pi1 = dim_of(space), _pi1_or_refusal(space)
    results = [_attempt(space, family, dim, pi1) for family in _FAMILIES]
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
    lb = _retract_chain_length(space)
    if lb > chosen.bound:
        raise ValueError(
            "the declared fundamental group or cover contradicts the complex: "
            f"its homology gives depth >= {lb}, above the bound {chosen.bound}"
        )
    if lb < chosen.bound:
        return chosen.replace(assumptions_used=assumptions)
    return chosen.replace(
        assumptions_used=assumptions, exact_depth=lb, provenance=RETRACT_CHAIN_PROVENANCE
    )


class WedgeDepthResult(Record):
    """Exact depth and capacity of a wedge of spheres, with a witness chain
    of sub-wedges growing one sphere at a time."""

    __slots__ = ("depth", "capacity", "chain")

    def __init__(self, depth: int, capacity: int, chain: tuple[tuple[tuple[int, int], ...], ...]):
        _set(self, "depth", depth)
        _set(self, "capacity", capacity)
        _set(self, "chain", chain)


def wedge_exact_depth(r: dict[int, int]) -> WedgeDepthResult:
    """Closed-form depth and capacity for a wedge with r[n] spheres of
    degree n.

    >>> result = wedge_exact_depth({2: 2, 3: 1})
    >>> result.depth, result.capacity
    (3, 6)
    """
    counts: dict[int, int] = {}
    for degree, count in r.items():
        degree = _check_int(degree, "sphere degree")
        count = _check_int(count, "sphere count")
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
    grown: dict[int, int] = {}
    for degree in sorted(counts):
        for _ in range(counts[degree]):
            grown[degree] = grown.get(degree, 0) + 1
            chain.append(tuple(sorted(grown.items())))
    return WedgeDepthResult(depth=depth, capacity=capacity, chain=tuple(chain))


def render_subwedge(counts: tuple[tuple[int, int], ...]) -> str:
    if not counts:
        return "1"
    parts = []
    for degree, count in counts:
        parts.extend([f"S^{degree}"] * count)
    return " v ".join(parts)


def _report_tree(report: "DepthBoundReport | NoBoundApplicable") -> dict:
    """The layout of `report_to_json`, ``per_degree`` held sparse."""
    if isinstance(report, NoBoundApplicable):
        failures = [{"rule": family, "reason": reason} for family, reason in report.failures]
        return {"rule": None, "bound": None, "failures": failures}
    body = {
        "rule": report.applied_rule,
        "bound": report.bound,
        "sl_pi1": report.sl_pi1,
        "per_degree": _Degrees(2, report.dim, report.terms, 0),
        "assumptions": list(report.assumptions_used),
    }
    if report.exact_depth is not None:
        body.update(exact_depth=report.exact_depth, provenance=report.provenance)
    return body


def report_to_json(report: "DepthBoundReport | NoBoundApplicable") -> dict:
    return _plain(_report_tree(report))


def report_json_chunks(report: "DepthBoundReport | NoBoundApplicable") -> Iterator[str]:
    """The text of `report_json_text` in pieces of at most 1000 lines: the
    tree of `report_to_json`, written by `_json_chunks`."""
    return _json_chunks(_report_tree(report))


def report_json_text(report: "DepthBoundReport | NoBoundApplicable") -> str:
    """``json.dumps(report_to_json(report), indent=2)``: the join of
    `report_json_chunks`.

    >>> from polydepth import Sphere
    >>> print(report_json_text(bound_general(Sphere(3))))
    {
      "rule": "Cor-simply",
      "bound": 1,
      "sl_pi1": 0,
      "per_degree": {
        "2": 0,
        "3": 1
      },
      "assumptions": [
        "H_i(cover) f.g.",
        "sl(\\u03c0\\u2081) finite"
      ]
    }
    """
    return "".join(report_json_chunks(report))


def _report_text_chunks(report: "DepthBoundReport | NoBoundApplicable") -> Iterator[str]:
    """The text of `render_report` in pieces of at most 1000 lines."""
    if isinstance(report, NoBoundApplicable):
        yield "no bound applicable"
        for family, reason in report.failures:
            yield f"\n  {family} failed: {reason}"
        return
    yield f"rule={report.applied_rule} bound={report.bound}\nsl_pi1={report.sl_pi1}"
    if report.dim >= 2:
        yield "\n"
        terms = {k: str(term) for k, term in report.terms.items()}
        yield from _degree_chunks(2, report.dim, terms, "0", ("degree ", ": ", "\n"))
    for assumption in report.assumptions_used:
        yield f"\nassumes: {assumption}"
    if report.exact_depth is not None:
        yield f"\nexact_depth={report.exact_depth} ({report.provenance})"


def render_report(report: "DepthBoundReport | NoBoundApplicable") -> str:
    return "".join(_report_text_chunks(report))
