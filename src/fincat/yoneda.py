"""Hom-functors, seed/transformation round trips, and pointwise Yoneda
bijections.

Everything here works over a finite table category whose set-valued
functors land in finite sets, so every statement is checked by full
enumeration:

* :func:`hom_cov_functor` — the covariant hom-functor of an object
  (values are the hom-sets, action is postcomposition), each morphism's
  map built on its first lookup: the checks read only the maps of the
  generators.
* :func:`hom_maps_functor` — maps out of a fixed probe set into a
  functor's values (action is postcomposition with the functor image); a
  map is its tuple of values over the sorted probe.
* :func:`check_yoneda_roundtrips` — the correspondence between maps
  ``probe -> values(anchor)`` and transformations from the anchor's
  hom-functor into the maps functor, both directions mutually inverse.
* :func:`yoneda_pointwise_bijection` — elements of the anchor's value set
  versus transformations out of the anchor's hom-functor.

The two checks take the hom-functors they compare, so a caller that checks
every anchor builds each one once.  They enumerate transformations with
:func:`fincat.finset.nattrans_values` and compare them as flat value
tuples: a transformation is natural exactly when the enumeration lists its
tuple, and it is made into maps and text only for a witness.
"""

from __future__ import annotations

from .core import (
    FINSET,
    CheckReport,
    FinCat,
    FunctorVal,
    MapsOnDemand,
    Obligation,
)
from .finset import (
    DEFAULT_ENUM_CAP,
    FinSetMap,
    FinSetObj,
    encode_map,
    map_values,
    nattrans_slices,
    nattrans_values,
)
from .record import Record

__all__ = [
    "HomContext",
    "hom_cov_functor",
    "hom_maps_functor",
    "check_yoneda_roundtrips",
    "yoneda_pointwise_bijection",
]


class HomContext(Record):
    """The data the hom-comparison statements quantify over.

    category: a finite table category; set_functor: a finite-set valued
    functor on it; probe: the fixed test set; anchor: the object whose
    hom-functor is compared.
    """

    category: FinCat
    set_functor: FunctorVal
    probe: FinSetObj
    anchor: str

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not self.category.has_object(self.anchor):
            raise ValueError(f"anchor {self.anchor!r} is not an object")


def hom_cov_functor(category: FinCat, anchor: str) -> FunctorVal:
    """The covariant hom-functor of ``anchor``: D maps to Hom(anchor, D).

    Morphism identifiers double as set atoms; a morphism g acts by
    postcomposition f -> g . f.  Each morphism's map is built on its first
    lookup (:class:`fincat.core.MapsOnDemand`), so a map that cannot be
    built, over a table that is not a category, raises there.
    """
    if not category.has_object(anchor):
        raise ValueError(f"{anchor!r} is not an object")
    # a hom-set is the index's sorted tuple of names, so in atom_key order
    object_map = {d: FinSetObj._of_sorted(category.hom(anchor, d)) for d in category.objects}
    ends, compose = category.morphisms, category.compose

    def postcompose(g):
        d, d2 = ends[g]
        return FinSetMap(object_map[d], object_map[d2], (compose[(g, f)] for f in object_map[d]))

    return FunctorVal(category, FINSET, object_map, MapsOnDemand(ends, postcompose))


def hom_maps_functor(
    probe: FinSetObj, set_functor: FunctorVal, cap: int = DEFAULT_ENUM_CAP
) -> FunctorVal:
    """D maps to the set of all maps probe -> set_functor(D).

    A map is the atom given by its tuple of values over the sorted probe;
    a morphism g acts by postcomposition with the functor's image of g,
    applied to each entry of the tuple.
    """
    category = set_functor.source
    # the maps come in lexicographic order of their values, so sorted
    object_map = {
        d: FinSetObj._of_sorted(map_values(probe, set_functor.object_map[d], cap))
        for d in category.objects
    }
    morphism_map = {}
    for g, (d, d2) in category.morphisms.items():
        action = set_functor.morphism_map[g]
        images = (tuple(map(action, values)) for values in object_map[d])
        morphism_map[g] = FinSetMap(object_map[d], object_map[d2], images)
    return FunctorVal(category, FINSET, object_map, morphism_map)


def check_yoneda_roundtrips(
    ctx: HomContext, hom: FunctorVal, maps: FunctorVal, cap: int = DEFAULT_ENUM_CAP
) -> CheckReport:
    """Both round trips of the seed/transformation correspondence between
    ``hom``, the anchor's :func:`hom_cov_functor`, and ``maps``, the probe's
    :func:`hom_maps_functor`.

    Quantifies over every seed map and every transformation (full
    enumeration, no sampling) and also asserts the counting corollary.
    """
    cod = ctx.set_functor.object_map[ctx.anchor]
    seeds = map_values(ctx.probe, cod, cap)
    transforms = nattrans_values(hom, maps, cap)
    ident = ctx.category.id_of(ctx.anchor)

    # A seed is its tuple of values, the atom ``maps`` uses for it, and a
    # transformation the flat tuple of its components' values.  The
    # transformation lifted from a seed sends f to (image of f)(seed), so its
    # flat tuple applies the image of every f, in slice order, to the seed,
    # and its anchor component sends the identity to
    # (image of the identity)(seed).  Each round trip compares tuples; map
    # text is built only for a witness.
    slices = nattrans_slices(hom)
    actions = [maps.morphism_map[f] for d in slices for f in hom.object_map[d]]
    at_identity = slices[ctx.anchor].start + hom.object_map[ctx.anchor].index[ident]
    back = actions[at_identity]

    bad_seed = [seed for seed in seeds if back(seed) != seed]
    bad_transform = [t for t in transforms if tuple(m(t[at_identity]) for m in actions) != t]

    seed_witness = ()
    if bad_seed:
        pair = (bad_seed[0], back(bad_seed[0]))
        seed_witness = tuple(encode_map(FinSetMap(ctx.probe, cod, v)) for v in pair)
    obligations = (
        Obligation("seed_roundtrip", not bad_seed, seed_witness),
        Obligation(
            "transform_roundtrip",
            not bad_transform,
            _printed_transform(ctx, hom, bad_transform[0]) if bad_transform else (),
        ),
        Obligation(
            "count_matches",
            len(seeds) == len(transforms),
            () if len(seeds) == len(transforms) else (len(seeds), len(transforms)),
        ),
    )
    return CheckReport(f"roundtrips@{ctx.anchor}", obligations)


def _printed_transform(ctx: HomContext, hom: FunctorVal, values: tuple) -> tuple:
    """A transformation out of ``hom`` into :func:`hom_maps_functor`, given
    as its flat tuple of values, as pairs of an object and its component's
    text, each tuple of values written as the map "{a->x}" it is, objects
    in sorted order."""
    printed = []
    for c, part in nattrans_slices(hom).items():
        cod = ctx.set_functor.object_map[c]
        texts = [encode_map(FinSetMap(ctx.probe, cod, v)) for v in values[part]]
        printed.append((c, encode_map(FinSetMap(hom.object_map[c], FinSetObj(texts), texts))))
    return tuple(printed)


def yoneda_pointwise_bijection(
    set_functor: FunctorVal, anchor: str, hom: FunctorVal, cap: int = DEFAULT_ENUM_CAP
) -> tuple:
    """Elements of values(anchor) versus transformations out of ``hom``, the
    anchor's :func:`hom_cov_functor`.

    Returns the map element -> transformation, each transformation as its
    flat tuple of values (see :func:`fincat.finset.nattrans_values`), plus a
    report that every image is natural and the assignment is injective and
    surjective onto the full enumeration.  The images of ``set_functor``
    must have the ends its objects give them, as a functor check ensures.
    """
    # The transformation of an element sends f to (image of f)(element), so
    # its flat tuple applies the image of every f, in slice order, to the
    # element.  It is natural exactly when the enumeration lists it.
    slices = nattrans_slices(hom)
    actions = [set_functor.morphism_map[f] for d in slices for f in hom.object_map[d]]
    mapping = {
        element: tuple(m(element) for m in actions) for element in set_functor.object_map[anchor]
    }
    enumerated = set(nattrans_values(hom, set_functor, cap))
    unnatural = [element for element, values in mapping.items() if values not in enumerated]
    images = set(mapping.values())
    distinct = len(images) == len(mapping)
    onto = images == enumerated

    obligations = (
        Obligation("components_natural", not unnatural, (unnatural[0],) if unnatural else ()),
        Obligation("injective", distinct, () if distinct else (len(mapping), len(images))),
        Obligation("surjective", onto, () if onto else (len(mapping), len(enumerated))),
    )
    return mapping, CheckReport(f"pointwise@{anchor}", obligations)
