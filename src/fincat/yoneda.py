"""Hom-functors, universal arrows, and pointwise Yoneda bijections.

Everything here works over a finite table category whose set-valued
functors land in finite sets, so every statement is checked by full
enumeration:

* :func:`hom_cov_functor` — the covariant hom-functor of an object
  (values are the hom-sets, action is postcomposition).
* :func:`hom_maps_functor` — maps out of a fixed probe set into a
  functor's values (action is postcomposition with the functor image).
* :func:`transform_from_seed` / :func:`seed_from_transform` — the two
  directions of the correspondence between maps ``probe -> values(anchor)``
  and transformations from the anchor's hom-functor, plus
  :func:`check_yoneda_roundtrips` verifying they are mutually inverse.
* :func:`is_universal_arrow` — exhaustive uniqueness check of the
  universal property of a seed map.
* :func:`yoneda_pointwise_bijection` — elements of the anchor's value set
  versus transformations out of the anchor's hom-functor.
* :func:`yoneda_embedding` — precomposition transformations between
  hom-functors, one per morphism.
* :func:`check_representation` / :func:`find_representation` —
  representability via the equivalence "component-wise bijection iff the
  chosen element is universal".

:func:`yoneda_pointwise_bijection` and :func:`check_yoneda_roundtrips`
accept the hom-functors they would otherwise build as keyword-only
arguments, so a caller that checks every anchor builds each one once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .core import (
    FINSET,
    CheckReport,
    FinCat,
    FunctorVal,
    NatTransVal,
    Obligation,
    validate_nattrans,
)
from .finset import (
    DEFAULT_ENUM_CAP,
    EncodingError,
    FinSetMap,
    FinSetObj,
    _trusted_map,
    _values_key,
    check_encodable,
    compose_maps,
    decode_map,
    encode_map,
    enumerate_maps,
    enumerate_nattrans_finset,
    nattrans_key,
)

__all__ = [
    "HomContext",
    "hom_cov_functor",
    "hom_maps_functor",
    "transform_from_seed",
    "seed_from_transform",
    "check_yoneda_roundtrips",
    "is_universal_arrow",
    "yoneda_pointwise_bijection",
    "yoneda_embedding",
    "check_representation",
    "find_representation",
]


@dataclass(frozen=True)
class HomContext:
    """The data the hom-comparison statements quantify over.

    category: a finite table category; set_functor: a finite-set valued
    functor on it; probe: the fixed test set; anchor: the object whose
    hom-functor is compared.  Optionally a seed map
    ``probe -> set_functor(anchor)`` and/or a transformation from the
    anchor's hom-functor to the maps-out-of-probe functor.
    """

    category: FinCat
    set_functor: FunctorVal
    probe: FinSetObj
    anchor: str
    seed: Optional[FinSetMap] = None
    transform: Optional[NatTransVal] = None

    def __post_init__(self):
        if self.anchor not in set(self.category.objects):
            raise ValueError(f"anchor {self.anchor!r} is not an object")
        if self.seed is not None:
            want = (self.probe, self.set_functor.object_map[self.anchor])
            if (self.seed.dom, self.seed.cod) != want:
                raise ValueError("seed map has wrong endpoints")


def hom_cov_functor(category: FinCat, anchor: str) -> FunctorVal:
    """The covariant hom-functor of ``anchor``: D maps to Hom(anchor, D).

    Morphism identifiers double as set atoms; a morphism g acts by
    postcomposition f -> g . f.
    """
    if anchor not in set(category.objects):
        raise ValueError(f"{anchor!r} is not an object")
    object_map = {d: FinSetObj(category.hom(anchor, d)) for d in category.objects}
    morphism_map = {}
    for g, (d, d2) in category.morphisms.items():
        table = {f: category.compose[(g, f)] for f in category.hom(anchor, d)}
        morphism_map[g] = FinSetMap(object_map[d], object_map[d2], table)
    return FunctorVal(category, FINSET, object_map, morphism_map)


def hom_maps_functor(
    probe: FinSetObj, set_functor: FunctorVal, cap: int = DEFAULT_ENUM_CAP
) -> FunctorVal:
    """D maps to the set of all maps probe -> set_functor(D).

    Atoms are the canonical map encodings; a morphism g acts by
    postcomposition with the functor's image of g.  Each map is enumerated
    and named once, keyed by its tuple of values over the sorted probe, so
    an action is a lookup of the postcomposed tuple.  Raises EncodingError
    when an atom of the probe or of a value set that has maps out of the
    probe cannot be encoded, or when two maps encode to one name (atoms
    such as 1 and "1" print alike).
    """
    category = set_functor.source
    maps_at = {
        d: enumerate_maps(probe, set_functor.object_map[d], cap) for d in category.objects
    }
    names = {}
    for d, maps in maps_at.items():
        if maps:
            check_encodable((*probe, *set_functor.object_map[d]))
        names[d] = {
            tuple(h.table[a] for a in probe.atoms): encode_map(h, strict=False) for h in maps
        }
        first = {}
        for values, name in names[d].items():
            other = first.setdefault(name, values)
            if other != values:
                raise EncodingError(
                    f"maps with values {other!r} and {values!r} both encode as {name!r}"
                )
    object_map = {d: FinSetObj(names[d].values()) for d in category.objects}
    morphism_map = {}
    for g, (d, d2) in category.morphisms.items():
        action = set_functor.morphism_map[g].table
        table = {
            name: names[d2][tuple(action[x] for x in values)]
            for values, name in names[d].items()
        }
        morphism_map[g] = _trusted_map(object_map[d], object_map[d2], table)
    return FunctorVal(category, FINSET, object_map, morphism_map)


def transform_from_seed(ctx: HomContext) -> NatTransVal:
    """The transformation whose component at D sends f to (image of f) . seed."""
    if ctx.seed is None:
        raise ValueError("context has no seed map")
    source = hom_cov_functor(ctx.category, ctx.anchor)
    target = hom_maps_functor(ctx.probe, ctx.set_functor)
    return _pointwise_transform(source, target, ctx.anchor, encode_map(ctx.seed, strict=False))


def seed_from_transform(ctx: HomContext) -> FinSetMap:
    """Recover the seed map: the anchor component applied to the identity."""
    if ctx.transform is None:
        raise ValueError("context has no transformation")
    ident = ctx.category.id_of(ctx.anchor)
    encoded = ctx.transform.at(ctx.anchor).table[ident]
    return decode_map(encoded, ctx.probe, ctx.set_functor.object_map[ctx.anchor])


def check_yoneda_roundtrips(
    ctx: HomContext,
    cap: int = DEFAULT_ENUM_CAP,
    *,
    source: Optional[FunctorVal] = None,
    target: Optional[FunctorVal] = None,
) -> CheckReport:
    """Both round trips of the seed/transformation correspondence.

    Quantifies over every seed map and every transformation (full
    enumeration, no sampling) and also asserts the counting corollary.
    ``source`` and ``target``, when given, are the anchor's
    :func:`hom_cov_functor` and the probe's :func:`hom_maps_functor`; the
    report is the one that building them here gives.
    """
    if source is None:
        source = hom_cov_functor(ctx.category, ctx.anchor)
    if target is None:
        target = hom_maps_functor(ctx.probe, ctx.set_functor, cap)
    seeds = enumerate_maps(ctx.probe, ctx.set_functor.object_map[ctx.anchor], cap)
    transforms = enumerate_nattrans_finset(source, target, cap)
    ident = ctx.category.id_of(ctx.anchor)

    # A seed is named by its canonical encoding, the atom ``target`` uses for
    # it, so each round trip compares names and never decodes one.
    bad_seed = []
    for seed in seeds:
        name = encode_map(seed, strict=False)
        back = _pointwise_transform(source, target, ctx.anchor, name).at(ctx.anchor).table[ident]
        if back != name:
            bad_seed.append((name, back))

    bad_transform = []
    for transform in transforms:
        name = transform.at(ctx.anchor).table[ident]
        again = _pointwise_transform(source, target, ctx.anchor, name)
        if again.components != transform.components:
            bad_transform.append(nattrans_key(transform))

    obligations = (
        Obligation("seed_roundtrip", not bad_seed, tuple(bad_seed[0]) if bad_seed else ()),
        Obligation(
            "transform_roundtrip",
            not bad_transform,
            tuple(bad_transform[0]) if bad_transform else (),
        ),
        Obligation(
            "count_matches",
            len(seeds) == len(transforms),
            () if len(seeds) == len(transforms) else (len(seeds), len(transforms)),
        ),
    )
    return CheckReport(f"roundtrips@{ctx.anchor}", obligations)


def is_universal_arrow(
    category: FinCat,
    set_functor: FunctorVal,
    probe: FinSetObj,
    anchor: str,
    seed: FinSetMap,
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple:
    """Exhaustive universal-property check for a seed map.

    True iff for every object D and every map g : probe -> values(D)
    exactly one morphism f : anchor -> D satisfies (image of f) . seed = g.
    The table records, per (D, g), the tuple of all solutions, so a failure
    is replayable from the output alone.
    """
    table = {}
    ok = True
    for d in sorted(category.objects):
        by_composite = {}
        for f in category.hom(anchor, d):
            by_composite.setdefault(compose_maps(set_functor.morphism_map[f], seed), []).append(f)
        for g in enumerate_maps(probe, set_functor.object_map[d], cap):
            solutions = tuple(by_composite.get(g, ()))
            table[(d, encode_map(g, strict=False))] = solutions
            if len(solutions) != 1:
                ok = False
    return ok, table


def _pointwise_transform(
    source: FunctorVal, set_functor: FunctorVal, anchor: str, element
) -> NatTransVal:
    """The transformation out of ``source``, the anchor's hom-functor, sending
    f in Hom(anchor, D) to (image of f)(element)."""
    category = source.source
    components = {}
    for d in category.objects:
        table = {
            f: set_functor.morphism_map[f].table[element]
            for f in category.hom(anchor, d)
        }
        components[d] = FinSetMap(source.object_map[d], set_functor.object_map[d], table)
    return NatTransVal(source, set_functor, components)


def yoneda_pointwise_bijection(
    category: FinCat,
    set_functor: FunctorVal,
    anchor: str,
    cap: int = DEFAULT_ENUM_CAP,
    *,
    source: Optional[FunctorVal] = None,
) -> tuple:
    """Elements of values(anchor) versus transformations out of the hom-functor.

    Returns the map element -> transformation plus a report that every image
    is natural and the assignment is injective and surjective onto the full
    enumeration.  ``source``, when given, is the anchor's
    :func:`hom_cov_functor`; the result is the one that building it here
    gives.
    """
    if source is None:
        source = hom_cov_functor(category, anchor)
    mapping = {}
    for element in set_functor.object_map[anchor]:
        mapping[element] = _pointwise_transform(source, set_functor, anchor, element)

    unnatural = [
        element
        for element, transform in mapping.items()
        if not validate_nattrans(transform).passed
    ]
    keys = {element: _values_key(t) for element, t in mapping.items()}
    distinct = len(set(keys.values())) == len(keys)
    enumerated = {_values_key(t) for t in enumerate_nattrans_finset(source, set_functor, cap)}
    onto = set(keys.values()) == enumerated

    obligations = (
        Obligation("components_natural", not unnatural, (unnatural[0],) if unnatural else ()),
        Obligation("injective", distinct, () if distinct else (len(keys), len(set(keys.values())))),
        Obligation("surjective", onto, () if onto else (len(keys), len(enumerated))),
    )
    return mapping, CheckReport(f"pointwise@{anchor}", obligations)


def yoneda_embedding(category: FinCat, morphism: str) -> NatTransVal:
    """Precomposition with a morphism, as a transformation between hom-functors.

    A morphism m : B -> C yields Hom(C,-) -> Hom(B,-) by g -> g . m; applying
    the component at C to the identity returns m itself.
    """
    if morphism not in category.morphisms:
        raise ValueError(f"{morphism!r} is not a morphism")
    b, c = category.morphisms[morphism]
    source = hom_cov_functor(category, c)
    target = hom_cov_functor(category, b)
    components = {}
    for d in category.objects:
        table = {g: category.compose[(g, morphism)] for g in category.hom(c, d)}
        components[d] = FinSetMap(source.object_map[d], target.object_map[d], table)
    return NatTransVal(source, target, components)


def _is_bijection(m: FinSetMap) -> bool:
    return len(m.dom) == len(m.cod) and len(set(m.table.values())) == len(m.dom)


_POINT = FinSetObj(("*",))


def check_representation(
    category: FinCat,
    set_functor: FunctorVal,
    anchor: str,
    transform: NatTransVal,
    cap: int = DEFAULT_ENUM_CAP,
) -> CheckReport:
    """Representability criterion agreement for one candidate transformation.

    Extracts the element picked out by the anchor component at the identity
    and checks that "every component is a bijection" and "that element is
    universal (probe = one-point set)" give the same verdict.  The report's
    subject records the verdict; the obligations demand naturality and the
    agreement of the two criteria.
    """
    natural = validate_nattrans(transform).passed
    element = transform.at(anchor).table[category.id_of(anchor)]
    iso = natural and all(_is_bijection(transform.at(d)) for d in category.objects)
    seed = FinSetMap(_POINT, set_functor.object_map[anchor], {"*": element})
    universal, _table = is_universal_arrow(
        category, set_functor, _POINT, anchor, seed, cap
    )
    obligations = (
        Obligation("is_natural_transformation", natural, () if natural else (anchor,)),
        Obligation(
            "criteria_agree",
            iso == universal,
            () if iso == universal else (iso, universal),
        ),
    )
    verdict = "representation" if iso else "not-a-representation"
    return CheckReport(f"{verdict}@{anchor}", obligations)


def find_representation(
    category: FinCat, set_functor: FunctorVal, cap: int = DEFAULT_ENUM_CAP
) -> Optional[tuple]:
    """First (object, element, transformation) whose components are all bijections.

    Scans objects and elements in canonical order; returns None when the
    functor is not representable.
    """
    for anchor in sorted(category.objects):
        source = hom_cov_functor(category, anchor)
        for element in set_functor.object_map[anchor]:
            transform = _pointwise_transform(source, set_functor, anchor, element)
            if all(_is_bijection(transform.at(d)) for d in category.objects):
                return anchor, element, transform
    return None
