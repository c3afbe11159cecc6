"""Value semantics of the package's records (``rational.record``): equality
within one class only, hashing by fields, immutability, the ``Name(field=…)``
repr, and the checks each constructor runs."""

from fractions import Fraction

import pytest

from conftest import replaced
from dp1.elliptic import O, ECPoint, FiberCurve
from dp1.engine import GenerationConfig, GenerationReport, HypothesisReport, PointRecord
from dp1.surface import Surface, SurfaceParams, WPoint

F = Fraction
PARAMS = SurfaceParams(*(F(v) for v in (0, 0, 1, 0, 0, 1, 0, 0, 1)))
POINT = ECPoint((1, 2), (-3, 1))

RECORDS = [
    FiberCurve((1, 2), (0, 1), (-3, 1)),
    POINT,
    HypothesisReport(True, True, False, True, True),
    GenerationConfig(3, 4, 2, 10, 64),
    PointRecord((2, 1), POINT, "seed"),
    PARAMS,
    WPoint(1, -2, 3, 4),
]
IDS = [type(r).__name__ for r in RECORDS]


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(rec):
    copy = replaced(rec)
    assert copy is not rec
    assert copy == rec and not copy != rec
    assert hash(copy) == hash(rec)
    assert len({rec, copy}) == 1


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_record_never_equals_a_plain_tuple(rec):
    fields = tuple(getattr(rec, name) for name in rec._fields)
    assert rec != fields and not rec == fields
    assert fields != rec and not fields == rec


def test_records_of_different_classes_with_equal_fields_differ():
    x, y = (1, 2), (-3, 1)
    assert ECPoint(x, y) != (x, y)
    # equal as plain tuples, since True == 1
    assert HypothesisReport(*[True] * 5) != GenerationConfig(*[1] * 5)
    assert GenerationConfig(*[1] * 5) != HypothesisReport(*[True] * 5)
    assert not HypothesisReport(*[True] * 5) == GenerationConfig(*[1] * 5)
    assert FiberCurve(x, y, x) != (x, y, x)


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_fields_are_read_only(rec):
    for name in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("rec", [r for r in RECORDS if type(r) is not ECPoint],
                         ids=[i for i in IDS if i != "ECPoint"])
def test_repr_names_each_field(rec):
    fields = ", ".join(f"{name}={getattr(rec, name)!r}" for name in rec._fields)
    assert repr(rec) == f"{type(rec).__name__}({fields})"


def test_repr_and_str_kept():
    assert repr(WPoint(1, -2, 3, 4)) == "WPoint(x=1, y=-2, z=3, w=4)"
    assert str(WPoint(1, -2, 3, 4)) == "[1:-2:3:4]"
    assert repr(POINT) == "(1/2, -3)" and str(POINT) == "(1/2, -3)"
    assert repr(O) == "O" and ECPoint() == O and O.is_infinity
    assert repr(GenerationConfig()) == (
        "GenerationConfig(t_height_bound=10, multiple_bound=10, depth=1, max_points=500, "
        "bit_cap=4096)"
    )
    assert repr(FiberCurve((1, 2), (0, 1), (-3, 1))) == "FiberCurve(t=(1, 2), A=(0, 1), B=(-3, 1))"


def test_surface_params_coerce_to_fraction():
    for params in (SurfaceParams(0, 0, 1, 0, 0, 1, 0, 0, 1),
                   SurfaceParams(a=0, b=0, c=1, d=0, e=0, f0=1, f1=0, f2=0, f3=1),
                   SurfaceParams(0, 0, F(1), 0, 0, 1, 0, 0, F(1))):
        assert params == PARAMS
        assert all(type(getattr(params, name)) is Fraction for name in params._fields)
    assert SurfaceParams(F(1, 2), *range(8)).a == F(1, 2)


@pytest.mark.parametrize("f3", [0, F(0)])
def test_surface_params_refuse_zero_f3(f3):
    with pytest.raises(ValueError, match="f3 must be nonzero"):
        SurfaceParams(1, 2, 3, 4, 5, 6, 7, 8, f3)
    with pytest.raises(ValueError, match="f3 must be nonzero"):
        replaced(PARAMS, f3=f3)


@pytest.mark.parametrize("bad, message", [
    ({"t_height_bound": 0}, "bounds must be >= 1"),
    ({"multiple_bound": 0}, "bounds must be >= 1"),
    ({"max_points": 0}, "bounds must be >= 1"),
    ({"depth": -1}, "depth must be >= 0"),
    ({"bit_cap": 0}, "bit cap must be >= 1"),
    ({"bit_cap": 14285}, "bit cap must be <= 14284"),
])
def test_generation_config_refuses_each_bad_bound(bad, message):
    with pytest.raises(ValueError, match=message):
        GenerationConfig(**bad)
    with pytest.raises(ValueError, match=message):
        replaced(GenerationConfig(), **bad)
    assert GenerationConfig(depth=0).depth == 0


def test_generation_report_starts_empty_each_time():
    first, second = GenerationReport(), GenerationReport()
    first.points.append(PointRecord((2, 1), POINT, "seed"))
    first.fibers[2, 1] = 1
    first.skipped.append("skipped")
    assert (second.points, second.fibers, second.skipped) == ([], {}, [])
    # all_verified is printed as a constant: each kept point, none here, was
    # checked where it was made
    printed = second.to_json(Surface(PARAMS), WPoint(1, -2, 3, 4))
    assert (printed["points"], printed["all_verified"], printed["truncated"]) == ([], True, False)
