"""Property test of the command-line interface on random small spaces.

Space JSON is drawn from spheres of dimension at most 6 and the explicit
example surfaces (with or without a cover complex), combined into wedges and
products of at most three parts, nested at most three deep.  Every command
must end in a documented exit code with at most one stderr line and no
traceback, and a general bound must read its per-degree terms off the cover
homology that `homology --universal-cover` prints.

A second property draws spheres and products whose dimension runs from
just below the dimension cap to far above it: above the cap every command
must refuse with one `DimensionExceedsCap` line, and below it the cap must
not fire.

A third property takes a shipped space file or a drawn space and replaces
one value, at any depth, with an arbitrary JSON value: null, a bool, any
float (infinities and NaN included), a string, a list, an object or an int
above 10^12.  Every command must still end in a documented exit code with at
most one stderr line and no traceback.

A fourth property does the same for the text grammars: it changes one
character of an abelian group text or of a Cayley table given as a string
``finite`` descriptor (insert, delete or replace it with one of ``+ _ - . e``,
a space, an Arabic-Indic digit or an ASCII digit) and runs ``bound``,
``homology`` and ``sl --descriptor`` on the result.
"""

import contextlib
import io
import json
import pathlib
import tempfile

from hypothesis import given, settings, strategies as st

from polydepth.abelian import FgAbelianGroup, sl_abelian
from polydepth.catalog import catalog_group
from polydepth.cli import run
from polydepth.finitegroup import format_cayley_table
from polydepth.topology import EXAMPLE_COMPLEXES, MAX_DIMENSION, complex_to_json

# example surface -> (pi1 descriptor JSON, name of its cover complex)
SURFACES = {
    "torus": ({"abelian": "Z^2"}, "point"),
    "klein-bottle": ({"elementary_amenable": {"hirsch": 2, "cd_finite": True}}, "point"),
    "projective-plane": ({"finite": {"catalog": "Z2"}}, "sphere2"),
    "sphere2": ({"trivial": True}, None),
}


def _explicit(name, with_cover):
    pi1, cover = SURFACES[name]
    body = {"complex": complex_to_json(EXAMPLE_COMPLEXES[name]), "pi1": pi1}
    if with_cover and cover is not None:
        body["cover"] = complex_to_json(EXAMPLE_COMPLEXES[cover])
    return {"explicit": body}


LEAVES = st.integers(1, 6).map(lambda n: {"sphere": n}) | st.builds(
    _explicit, st.sampled_from(sorted(SURFACES)), st.booleans()
)


def _spaces(depth):
    if depth == 0:
        return LEAVES
    return LEAVES | st.builds(
        lambda tag, parts: {tag: parts},
        st.sampled_from(["wedge", "product"]),
        st.lists(_spaces(depth - 1), min_size=1, max_size=3),
    )


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(_spaces(3))
def test_random_spaces_end_cleanly(space):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/space.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(space, fh)
        results = {}
        for command in (
            ["bound"],
            ["bound", "--rule", "Thm4.1"],
            ["homology"],
            ["homology", "--universal-cover"],
        ):
            argv = [command[0], path, *command[1:], "--format", "json"]
            code, out, err = _run(argv)
            assert code in (0, 1, 2), (argv, code, err)
            assert "Traceback" not in err
            assert err.count("\n") <= 1, err
            results[" ".join(command)] = (code, out)
    code, out = results["bound --rule Thm4.1"]
    if code == 0:
        cover_code, cover_out = results["homology --universal-cover"]
        assert cover_code == 0
        groups = json.loads(cover_out)["groups"]
        for degree, length in json.loads(out)["per_degree"].items():
            group = groups.get(degree, {"free_rank": 0, "torsion": []})
            expected = sl_abelian(
                FgAbelianGroup(group["free_rank"], tuple(group["torsion"]))
            )
            assert length == expected, (degree, group)


AROUND_CAP = st.integers(MAX_DIMENSION - 3, MAX_DIMENSION + 3) | st.integers(
    MAX_DIMENSION // 2, 10**15
)


@settings(max_examples=100, deadline=None)
@given(
    st.builds(lambda n: {"sphere": n}, AROUND_CAP)
    | st.builds(
        lambda dims: {"product": [{"sphere": n} for n in dims]},
        st.lists(AROUND_CAP.map(lambda n: max(1, n // 2)), min_size=2, max_size=3),
    )
)
def test_dimensions_around_the_cap(space):
    dim = sum(f["sphere"] for f in space.get("product", [space]))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/space.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(space, fh)
        if dim > MAX_DIMENSION:
            for command in (["bound"], ["homology"], ["homology", "--universal-cover"]):
                code, out, err = _run([command[0], path, *command[1:], "--format", "json"])
                assert code == 2 and out == ""
                assert err.startswith("error: DimensionExceedsCap:"), err
                assert err.count("\n") == 1
        else:
            # the 2-dim rule refuses every dimension but 2 before any
            # homology, so the dense renderings never run here
            code, out, err = _run(["bound", path, "--rule", "Thm4.8"])
            assert code == 2 and err == ""
            assert f"got dim {dim}" in out


SHIPPED = [
    json.loads(path.read_text(encoding="utf-8"))
    for path in sorted((pathlib.Path(__file__).parent.parent / "spaces").glob("*.json"))
]

# keys the readers know, so that drawn objects also reach past the first check
KEYS = st.sampled_from(
    ["sphere", "wedge", "product", "explicit", "complex", "pi1", "cover", "cells",
     "boundary", "trivial", "finite", "abelian", "free", "elementary_amenable",
     "catalog", "table", "free_rank", "torsion", "hirsch", "cd_finite"]
) | st.text(max_size=4)

HOSTILE = st.recursive(
    st.none()
    | st.booleans()
    | st.floats()
    | st.just(1e400)
    | st.text(max_size=8)
    | st.integers(10**12 + 1, 10**40),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=2),
    max_leaves=4,
)


def _positions(obj, at=()):
    """Every position in a JSON value, the root included, as a key path."""
    yield at
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _positions(value, (*at, key))


def _replaced(obj, at, new):
    if not at:
        return new
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    copy[at[0]] = _replaced(obj[at[0]], at[1:], new)
    return copy


@st.composite
def _hostile_spaces(draw):
    space = draw(st.sampled_from(SHIPPED) | _spaces(2))
    at = draw(st.sampled_from(list(_positions(space))))
    return _replaced(space, at, draw(HOSTILE))


@settings(max_examples=200, deadline=None)
@given(_hostile_spaces())
def test_hostile_values_end_cleanly(space):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/space.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(space, fh)
        for command in ("bound", "homology"):
            code, out, err = _run([command, path])
            assert code in (0, 1, 2), (command, code, err)
            assert "Traceback" not in err
            assert err.count("\n") <= 1, err


# descriptors whose value is text, and the characters an edit may bring in
TEXT_DESCRIPTORS = [
    {"abelian": "Z^2 + Z/4"},
    {"abelian": "Z ⊕ Z/6"},
    {"finite": format_cayley_table(catalog_group("Z4"))},
    {"finite": format_cayley_table(catalog_group("S3"))},
]
EDIT_CHARS = st.sampled_from([*"+_-.e ", "\u0661"]) | st.integers(0, 9).map(str)


@st.composite
def _edited_descriptors(draw):
    (tag, text), = draw(st.sampled_from(TEXT_DESCRIPTORS)).items()
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    at = draw(st.integers(0, len(text) - (edit != "insert")))
    new = "" if edit == "delete" else draw(EDIT_CHARS)
    return {tag: text[:at] + new + text[at + (edit != "insert"):]}


@settings(max_examples=150, deadline=None)
@given(_edited_descriptors())
def test_edited_text_fields_end_cleanly(descriptor):
    space = _explicit("projective-plane", True)
    space["explicit"]["pi1"] = descriptor
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, body in (("space", space), ("descriptor", descriptor)):
            paths[name] = f"{tmp}/{name}.json"
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(body, fh)
        for argv in (
            ["bound", paths["space"]],
            ["homology", paths["space"]],
            ["sl", "--descriptor", paths["descriptor"]],
        ):
            code, out, err = _run(argv)
            assert code in (0, 1, 2), (argv, code, err)
            assert "Traceback" not in err
            assert err.count("\n") <= 1, err
