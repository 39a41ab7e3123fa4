"""Morphism maps built on first use.

``hom_cov_functor`` and both Kan extensions give their functors a
``MapsOnDemand``: every morphism is listed, and each map is built when it is
first looked up.  These tests check the mapping's own contract, compare
every map with the references that built all of them up front
(``eager_hom_cov_functor`` and ``eager_kan_morphism_maps``), and pin how
many maps the ``yoneda`` and ``kan`` commands build.
"""

import copy
import glob
import io
import os
import pickle
import random

import pytest
from oracles import eager_hom_cov_functor, eager_kan_morphism_maps
from test_kan_presentation import _kan_cases

import fincat.adjunction
import fincat.yoneda
from fincat import cli
from fincat.adjunction import kan_extensions
from fincat.core import FinCat, FunctorVal, MapsOnDemand, validate_category
from fincat.files import FixtureParseError, load_category
from fincat.finset import FinSetMap, FinSetObj
from fincat.yoneda import hom_cov_functor


def _counted(kite):
    """A ``MapsOnDemand`` over the kite's morphisms, each sent to the
    identity of a point, and the list of names its ``build`` was called
    with."""
    built = []
    point = FinSetObj((0,))

    def build(name):
        built.append(name)
        return FinSetMap(point, point, (0,))

    return MapsOnDemand(kite.morphisms, build), built


def test_listing_builds_nothing(kite):
    maps, built = _counted(kite)
    assert list(maps) == list(kite.morphisms)
    assert len(maps) == len(kite.morphisms)
    assert all(name in maps for name in kite.morphisms)
    assert "no such morphism" not in maps
    assert list(maps.keys()) == list(kite.morphisms)
    assert built == []


def test_each_map_is_built_once(kite):
    maps, built = _counted(kite)
    names = list(kite.morphisms)
    random.Random(0).shuffle(names)
    first = [maps[name] for name in names]
    again = [maps[name] for name in names + names[::-1]]
    assert again == first + first[::-1]
    assert [maps.get(name) for name in names] == first
    assert built == names


def test_an_unknown_name_raises_key_error_and_builds_nothing(kite):
    maps, built = _counted(kite)
    with pytest.raises(KeyError):
        maps["no such morphism"]
    assert maps.get("no such morphism", "absent") == "absent"
    assert built == []


def test_equality_repr_copy_and_pickle_are_those_of_the_eager_functor(kite):
    eager = eager_hom_cov_functor(kite, "1")
    for make in (
        lambda hom: hom,
        repr,
        copy.copy,
        copy.deepcopy,
        lambda hom: pickle.loads(pickle.dumps(hom)),
    ):
        hom = hom_cov_functor(kite, "1")  # each conversion starts from no map built
        got = make(hom)
        if make is repr:
            assert got == repr(eager)
            continue
        assert type(got) is FunctorVal
        assert got == eager and eager == got
        assert got.morphism_map == eager.morphism_map
        assert eager.morphism_map == got.morphism_map
        assert list(got.morphism_map.items()) == list(eager.morphism_map.items())
    assert repr(hom_cov_functor(kite, "1").morphism_map) == repr(eager.morphism_map)
    assert type(copy.copy(hom_cov_functor(kite, "1").morphism_map)) is dict
    assert hom_cov_functor(kite, "1") != eager_hom_cov_functor(kite, "2")


def test_a_map_that_cannot_be_built_raises_at_its_first_lookup():
    """Over a table missing the composite g . f, the hom-functor of 0 is
    built, and the map of g raises when it is first looked up."""
    objects = ("0", "1", "2")
    identity = {x: f"id_{x}" for x in objects}
    morphisms = {f"id_{x}": (x, x) for x in objects}
    morphisms.update(f=("0", "1"), g=("1", "2"))
    compose = {(i, i): i for i in identity.values()}
    compose.update({("f", "id_0"): "f", ("id_1", "f"): "f"})
    compose.update({("g", "id_1"): "g", ("id_2", "g"): "g"})
    table = FinCat(objects, morphisms, identity, compose)
    assert not validate_category(table).passed
    hom = hom_cov_functor(table, "0")
    assert hom.morphism_map["f"].values == ("f",)
    for _ in range(2):
        with pytest.raises(KeyError):
            hom.morphism_map["g"]
        with pytest.raises(KeyError):
            hom.morphism_map.get("g")


def _same_maps(got, want):
    """The same names in the same order, each with an equal map."""
    assert list(got) == list(want)
    assert all(got[name] == want[name] for name in reversed(list(want)))
    assert list(got.items()) == list(want.items())


def test_kan_maps_match_the_eager_loops(fix):
    """Seeded: every morphism map of both extensions, looked up last to
    first, equals the one the eager loops build from the same legs."""
    compared = 0
    for seed in range(3):
        for along, functor in _kan_cases(fix, random.Random(seed)):
            extensions = kan_extensions(along, functor)
            (rkan, _cones), (lkan, _cocones) = extensions
            right, left = eager_kan_morphism_maps(along, extensions)
            _same_maps(rkan.morphism_map, right)
            _same_maps(lkan.morphism_map, left)
            compared += 1
    assert compared == 3 * 141


def _bundled_categories(fix):
    """Every bundled ``.fincat`` that ``check-cat`` passes, by file name."""
    paths = glob.glob(fix("*.fincat")) + glob.glob(fix("broken", "*.fincat"))
    categories = {}
    for path in sorted(paths):
        try:
            category = load_category(path)
        except FixtureParseError:
            continue
        if validate_category(category).passed:
            categories[os.path.basename(path)] = category
    return categories


def test_hom_functor_maps_match_the_eager_functor(fix):
    """The hom-functor at every anchor of every bundled category, its maps
    looked up last to first, equals the eagerly built one."""
    categories = _bundled_categories(fix)
    assert "kite.fincat" in categories and "bad_assoc.fincat" not in categories
    anchors = 0
    for category in categories.values():
        for anchor in category.objects:
            hom, eager = hom_cov_functor(category, anchor), eager_hom_cov_functor(category, anchor)
            assert hom.object_map == eager.object_map
            _same_maps(hom.morphism_map, eager.morphism_map)
            assert hom == eager
            anchors += 1
    assert anchors == sum(len(c.objects) for c in categories.values())


def _count_builds(monkeypatch, module):
    """The list of morphism names whose maps ``module``'s ``MapsOnDemand``
    instances build, filled as they build them."""
    builds = []

    class Counted(MapsOnDemand):
        __slots__ = ()

        def __init__(self, ends, build):
            def counted(name):
                builds.append(name)
                return build(name)

            super().__init__(ends, counted)

    monkeypatch.setattr(module, "MapsOnDemand", Counted)
    return builds


@pytest.mark.parametrize(
    "argv, module, count",
    [
        (["yoneda", "f_kite.fun"], fincat.yoneda, 10),
        (["kan", "incl_a4_b6.fun", "h_on_a.fun"], fincat.adjunction, 12),
    ],
)
def test_commands_build_only_the_maps_they_read(fix, monkeypatch, argv, module, count):
    """``yoneda f_kite.fun`` builds 10 hom-functor maps of the 70 its five
    hom-functors have; ``kan incl_a4_b6.fun h_on_a.fun`` builds 12 of the
    extensions' 34."""
    builds = _count_builds(monkeypatch, module)
    out = io.StringIO()
    assert cli.run([argv[0]] + [fix(name) for name in argv[1:]], out=out) == 0
    assert len(builds) == count

