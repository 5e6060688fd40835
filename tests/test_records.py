"""The report records against frozen dataclass twins, and slotted records.

Every report class derives from ``reidtai.records.Record`` instead of being a
``@dataclass(frozen=True)``.  Each twin below is made by
``dataclasses.make_dataclass`` from the class's own annotations and default
class attributes, the same class body the decorator used to read, and the two
must agree on repr, equality, hashing, construction and immutability.  The
value classes (group elements and spectra) are records too, with their fields
in ``__slots__``; a throwaway slotted record checks what the base gives them.
The same throwaway records pin ``records.json_value``, the one JSON rule
every report follows.
"""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from payloads import assert_payload_close
from search_oracles import pair_feasible
from reidtai import deviation, imprimitive, lattice, monomial, orders, roots, search, torus
from reidtai.lattice import sublattice_from_rows
from reidtai.monomial import MonomialGroup, g_group, monomial_closure
from reidtai.records import Record, json_value
from reidtai.roots import RootOfUnity, unit_classes
from reidtai.search import MODE_ORBIT_SETS, MODE_VALUE_UNION, PairDecision, enumerate_exceptional_multisets
from reidtai.spectra import Spectrum
from reidtai.torus import AffineTorusMap, closure, exceptional_elements

RECORDS = sorted(
    (
        cls
        for module in (roots, lattice, orders, search, monomial, imprimitive, torus, deviation)
        for cls in vars(module).values()
        if isinstance(cls, type)
        and issubclass(cls, Record)
        and cls.__module__ == module.__name__
        and "__slots__" not in cls.__dict__  # the slotted values (group elements, spectra) write their own __init__
    ),
    key=lambda cls: (cls.__module__, cls.__qualname__),
)
IDS = [cls.__qualname__ for cls in RECORDS]


def _members_post_init(self):
    object.__setattr__(self, "_members", frozenset(self.elements))


def twin_of(cls: type) -> type:
    """The frozen dataclass the class body would make; MonomialGroup keeps its derived member set."""
    specs = []
    for name in cls.__dict__["__annotations__"]:
        if name in cls.__dict__:
            specs.append((name, object, dataclasses.field(default=cls.__dict__[name])))
        else:
            specs.append((name, object))
    namespace = {}
    if cls is MonomialGroup:
        specs.append(("_members", object, dataclasses.field(init=False, repr=False, compare=False)))
        namespace["__post_init__"] = _members_post_init
    return dataclasses.make_dataclass(cls.__qualname__, specs, frozen=True, namespace=namespace)


def _outcome(f, *args):
    """f's result, or the type of the TypeError it raises (an unhashable field)."""
    try:
        return f(*args)
    except TypeError:
        return TypeError


def assert_matches_twin(record: Record) -> None:
    cls = type(record)
    values = {name: getattr(record, name) for name in cls._fields}
    twin = twin_of(cls)(**values)
    assert repr(record) == repr(twin)
    assert _outcome(hash, record) == _outcome(hash, twin)
    assert record == cls(**values) and twin == type(twin)(**values)
    assert record != twin and twin != record


def test_every_report_class_is_a_record():
    assert len(RECORDS) == 24
    assert not any(dataclasses.is_dataclass(cls) for cls in RECORDS)
    assert not dataclasses.is_dataclass(monomial.MonomialElement) and not dataclasses.is_dataclass(AffineTorusMap)


def test_the_value_classes_are_slotted_records_with_no_hand_written_methods():
    fields_of = {
        monomial.MonomialElement: ("permutation", "phase_numerators", "modulus"),
        AffineTorusMap: ("linear", "numerators", "denominator"),
        Spectrum: ("values",),
    }
    for cls, fields in fields_of.items():
        assert issubclass(cls, Record) and cls._fields == cls.__slots__ == fields
        own = {"__setattr__", "__delattr__", "__eq__", "__hash__", "__repr__"} & set(cls.__dict__)
        assert own == ({"__repr__"} if cls is Spectrum else set())


# ---------------------------------------------------------------------------
# Every record class on placeholder field values
# ---------------------------------------------------------------------------


def _placeholders(cls: type, tag: str = "v") -> list:
    return [(i, f"{tag}{i}") for i in range(len(cls._fields))]


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_repr_equality_and_hash_match_the_twin(cls):
    twin_cls = twin_of(cls)
    values = _placeholders(cls)
    record, twin = cls(*values), twin_cls(*values)
    assert cls._fields == tuple(f.name for f in dataclasses.fields(twin_cls) if f.init)
    assert repr(record) == repr(twin)
    assert record == cls(*values) and twin == twin_cls(*values)
    assert hash(record) == hash(twin) == hash(cls(*values))
    changed = values[:-1] + [(-1, "changed")]
    assert record != cls(*changed) and twin != twin_cls(*changed)
    # another class with equal fields: __eq__ gives NotImplemented, so == falls back to identity
    other = type(cls.__name__, (Record,), {"__annotations__": dict(cls.__dict__["__annotations__"])})
    assert record.__eq__(other(*values)) is NotImplemented
    assert record != other(*values) and twin != twin_of(cls)(*values) and record != twin
    assert record.__eq__(values) is NotImplemented and twin.__eq__(values) is NotImplemented


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_keyword_construction_and_defaults_match_the_twin(cls):
    twin_cls = twin_of(cls)
    values = _placeholders(cls)
    kwargs = dict(zip(cls._fields, values))
    assert cls(**kwargs) == cls(*values)
    assert repr(cls(**kwargs)) == repr(twin_cls(**kwargs))
    split = len(values) // 2
    assert cls(*values[:split], **dict(list(kwargs.items())[split:])) == cls(*values)
    required = [name for name in cls._fields if name not in cls.__dict__]
    assert repr(cls(*values[: len(required)])) == repr(twin_cls(*values[: len(required)]))
    if required:
        with pytest.raises(TypeError):
            twin_cls(*values[: len(required) - 1])
        with pytest.raises(TypeError):
            cls(*values[: len(required) - 1])
    for bad_args, bad_kwargs in [
        (values + [0], {}),
        (values, {cls._fields[0]: 0}),
        (values, {"no_such_field": 0}),
    ]:
        with pytest.raises(TypeError):
            twin_cls(*bad_args, **bad_kwargs)
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise_attribute_error(cls):
    values = _placeholders(cls)
    record, twin = cls(*values), twin_of(cls)(*values)
    for obj in (record, twin):
        for name in (cls._fields[0], cls._fields[-1], "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert record == cls(*values)


def test_defaults_are_the_class_attributes():
    assert (PairDecision.witness, PairDecision.values, PairDecision.orbit) == (None, None, None)
    assert search.MultisetEnumeration.refutations == ()
    with_defaults = {cls.__qualname__ for cls in RECORDS if any(name in cls.__dict__ for name in cls._fields)}
    assert with_defaults == {"PairDecision", "MultisetEnumeration"}


# ---------------------------------------------------------------------------
# Records as the engines build them
# ---------------------------------------------------------------------------


def test_pair_decisions_with_and_without_defaults():
    value_union = pair_feasible(1, 2, 6, MODE_VALUE_UNION)
    assert value_union.witness is not None and value_union.orbit is None
    orbit_sets = pair_feasible(1, 2, 6, MODE_ORBIT_SETS)
    assert orbit_sets.witness is None and orbit_sets.values is None and orbit_sets.orbit is not None
    bare = PairDecision(value_union.pair, MODE_VALUE_UNION, True, Fraction(1, 2))
    for decision in (value_union, orbit_sets, bare):
        assert_matches_twin(decision)
    assert bare == PairDecision(value_union.pair, MODE_VALUE_UNION, True, Fraction(1, 2), None, None, None)
    assert "witness=None, values=None, orbit=None" in repr(bare)


def test_multiset_enumeration():
    enumeration = enumerate_exceptional_multisets(MODE_VALUE_UNION, f_max=12)
    assert enumeration.refutations == ()
    assert_matches_twin(enumeration)
    assert_matches_twin(enumeration.conformance)
    refuted = enumerate_exceptional_multisets(MODE_ORBIT_SETS, f_max=12)
    assert refuted.refutations
    assert_matches_twin(refuted)


def test_unit_classes_and_sublattice():
    classes = unit_classes(12)
    assert repr(classes) == "UnitClasses(modulus=12, units=(1, 5, 7, 11), pairs=((1, 11), (5, 7)))"
    assert_matches_twin(classes)
    sub = sublattice_from_rows(3, [(2, 0, 0), (0, 4, 2)])
    assert_matches_twin(sub)
    assert sub == sublattice_from_rows(3, [(0, 4, 2), (2, 4, 2)]) and hash(sub) == hash((3, sub.basis))
    assert_matches_twin(lattice.snf(((2, 4), (6, 8))))


def test_exceptional_elements_and_their_reports():
    swap = AffineTorusMap(((0, 1), (1, 0)), (0, 0))
    half = AffineTorusMap(((1, 0), (0, 1)), (Fraction(1, 2), Fraction(1, 2)))
    action = closure([swap, half])
    exc = exceptional_elements(action)
    assert exc
    for e in exc:
        assert_matches_twin(e)
    assert_matches_twin(action)
    assert_matches_twin(torus.filtration(action))


def test_monomial_group_members_are_not_a_field():
    group = monomial_closure(g_group(2, 1, 2).generators)
    assert "_members" not in repr(group) and "_members" not in group._fields
    assert_matches_twin(group)
    same = MonomialGroup(group.degree, group.elements, group.generators)
    object.__setattr__(same, "_members", frozenset())  # compare=False: the member set takes no part in ==
    assert same == group and hash(same) == hash(group)
    assert group.generators[0] in group and group.generators[0] not in same
    report = monomial.prop_prod_check(group)
    assert_matches_twin(report)
    for entry in report.entries:
        assert_matches_twin(entry)


def test_a_g_group_lists_its_elements_outside_its_fields():
    group = g_group(2, 1, 2)
    assert group._fields == ("m", "p", "degree", "generators")
    assert_matches_twin(group)
    assert "elements" not in vars(group)
    assert group.elements == monomial_closure(group.generators).elements and "elements" in vars(group)
    assert_matches_twin(group)  # the listing takes no part in repr, == or hash


# ---------------------------------------------------------------------------
# A slotted record: fields in __slots__, no defaults read from the slots
# ---------------------------------------------------------------------------


class Point(Record):
    __slots__ = ("x", "y")
    x: int
    y: int


class Label(Record):
    __slots__ = ("text",)
    text: str


class Empty(Record):
    __slots__ = ()


def test_a_slotted_record_needs_every_argument():
    assert Point._defaults == {} and Point._fields == ("x", "y")
    with pytest.raises(TypeError, match="missing required arguments: y"):
        Point(1)
    with pytest.raises(TypeError, match="missing required arguments: x, y"):
        Point()
    with pytest.raises(TypeError):
        Point(1, 2, 3)
    with pytest.raises(TypeError):
        Point(1, x=2)


def test_a_slotted_record_by_keyword_and_position():
    p = Point(y=2, x=1)
    assert p == Point(1, 2) == Point(1, y=2) and (p.x, p.y) == (1, 2)
    assert repr(p) == "Point(x=1, y=2)" and repr(Label("a")) == "Label(text='a')" and repr(Empty()) == "Empty()"
    assert not hasattr(p, "__dict__")


def test_a_slotted_record_hashes_its_field_tuple():
    assert hash(Point(1, 2)) == hash((1, 2)) and Point._values(Point(1, 2)) == (1, 2)
    assert hash(Label("a")) == hash(("a",)) and Label._values(Label("a")) == ("a",)
    assert hash(Empty()) == hash(()) and Empty._values(Empty()) == () and Empty() == Empty()
    assert Point(1, 2) != Point(2, 1) and Label("a") != Label("b")


def test_a_slotted_record_is_unequal_to_another_class():
    class Twin(Record):
        __slots__ = ("x", "y")
        x: int
        y: int

    assert Point(1, 2).__eq__(Twin(1, 2)) is NotImplemented and Point(1, 2) != Twin(1, 2)
    assert Point(1, 2).__eq__((1, 2)) is NotImplemented and Point(1, 2) != (1, 2)


def test_a_slotted_record_cannot_be_changed():
    p = Point(1, 2)
    for name in ("x", "y", "z"):
        with pytest.raises(AttributeError):
            setattr(p, name, 0)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert p == Point(1, 2)


# ---------------------------------------------------------------------------
# The JSON rule
# ---------------------------------------------------------------------------


def test_json_value_writes_fractions_and_roots_as_strings():
    assert json_value(Fraction(-1, 3)) == "-1/3" and json_value(Fraction(4, 2)) == "2"
    assert json_value(RootOfUnity(7, 6)) == "1/6" and json_value(RootOfUnity(0)) == "0"
    assert Point(Fraction(1, 2), RootOfUnity(5, 6)).to_json() == {"x": "1/2", "y": "5/6"}


def test_json_value_writes_tuples_and_lists_as_lists():
    value = ((1, Fraction(1, 2)), [(), ("a", RootOfUnity(1, 3))])
    assert json_value(value) == [[1, "1/2"], [[], ["a", "1/3"]]]
    assert Label(((0, 1), (2, 3))).to_json() == {"text": [[0, 1], [2, 3]]}
    assert Empty().to_json() == {}


def test_json_value_writes_int_keys_as_strings_in_insertion_order():
    survivors = json_value({6: Fraction(2, 3), 10: Fraction(4, 5)})
    assert list(survivors.items()) == [("6", "2/3"), ("10", "4/5")]
    assert json.dumps(Label({6: 1, 10: 2}).to_json(), sort_keys=True) == '{"text": {"10": 2, "6": 1}}'


def test_json_value_writes_a_nested_record_by_its_own_to_json():
    assert Label(Point(1, Fraction(1, 2))).to_json() == {"text": {"x": 1, "y": "1/2"}}
    assert Label((Spectrum(["1/2", "0"]),)).to_json() == {"text": [["0", "1/2"]]}
    shift = AffineTorusMap(((0, 1), (1, 0)), (Fraction(1, 2), 0))
    assert Point(shift, None).to_json() == {"x": {"matrix": [[0, 1], [1, 0]], "translation": ["1/2", "0"]}, "y": None}


def test_json_value_writes_complex_as_a_pair():
    assert json_value(1.5 - 2j) == [1.5, -2.0] and json_value(1j) == [0.0, 1.0]


@pytest.mark.parametrize("value", [None, True, False, 0, -7, 2.5, "1/2"])
def test_json_value_passes_other_values_through(value):
    assert json_value(value) is value and Label(value).to_json()["text"] is value


# ---------------------------------------------------------------------------
# Reports that no command prints, pinned as the hand-written serializers gave them
# ---------------------------------------------------------------------------


def test_product_bound_report_json_drops_the_thresholds():
    report = deviation.product_bound_check([np.diag([1j, -1, 1]), np.eye(3)[[1, 0, 2]].astype(complex)])
    assert report.thresholds
    assert_payload_close(report.to_json(), {
        "n_factors": 2,
        "dimension": 3,
        "jump_counts": [[0.7071067811865476, 0, 4], [1.7071067811865475, 0, 1], [3.0, 0, 0]],
        "product_deviation": 2.8284271247461903,
        "factor_deviation_sum": 6.242640687119286,
        "ok": True,
    })


def test_tensor_perm_trace_report_json():
    report = deviation.tensor_perm_trace_check([np.diag([1j, 1, 1]), np.diag([1, 1, -1])])
    assert_payload_close(report.to_json(), {
        "n_factors": 2,
        "dimension": 3,
        "cyclic_trace": [0.0, 1.0],
        "product_trace": [0.0, 1.0],
        "bound": 3.0,
        "ok": True,
    })


def test_invariant_dimension_report_json():
    report = deviation.invariant_dimension(g_group(2, 1, 2))
    assert_payload_close(report.to_json(), {"dimension": 0, "average": 0.0, "witness_index": 3})
