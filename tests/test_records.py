"""The contract of the four public record types: ``GaussianInt``,
``EvalBudget``, ``FamilySpec`` and ``CrossCheckReport``.

Each is an immutable value: built positionally or by keyword with the same
defaults, checked when it is made, equal only to an instance of its own
class with equal fields, hashed from its fields, shown by ``repr`` as
``Name(field=value, ...)``, and closed to assignment.  The argument checks
that ``EvalBudget`` and ``FamilySpec`` make when they are built are pinned
in ``test_evaluators.py`` and ``test_sequences.py``.
"""

import copy
import dataclasses
import pickle

import pytest

from fibhess import CrossCheckReport, EvalBudget, FamilySpec, GaussianInt, cross_check
from fibhess.ring import ONE, X, Y

# --- construction and defaults -------------------------------------------


def test_gaussian_int_construction():
    assert GaussianInt() == GaussianInt(0, 0)
    assert GaussianInt(3) == GaussianInt(3, 0) == GaussianInt(re=3)
    assert GaussianInt(im=-2) == GaussianInt(0, -2)
    g = GaussianInt(re=5, im=7)
    assert (g.re, g.im) == (5, 7)


def test_eval_budget_construction():
    assert (EvalBudget().max_det_order, EvalBudget().max_per_order) == (10, 8)
    assert EvalBudget(4) == EvalBudget(max_det_order=4, max_per_order=8)
    assert EvalBudget(max_per_order=3) == EvalBudget(10, 3)


def test_family_spec_construction():
    spec = FamilySpec("f", X, Y, 1)
    assert (spec.name, spec.xsub, spec.ysub, spec.p, spec.index_offset) == ("f", X, Y, 1, 0)
    assert FamilySpec(name="f", xsub=X, ysub=Y, p=1, index_offset=0) == spec
    assert FamilySpec("f", X, Y, None, 2).index_offset == 2


def test_cross_check_report_construction():
    values = {"recurrence": ONE}
    report = CrossCheckReport(1, 1, values, True, None)
    assert report == CrossCheckReport(
        p=1, n=1, values=values, all_equal=True, first_mismatch=None
    )
    assert (report.p, report.n, report.values, report.all_equal, report.first_mismatch) == (
        1, 1, values, True, None
    )
    with pytest.raises(TypeError):
        CrossCheckReport(1, 1, values, True)  # no field has a default


# --- equality and hashing -------------------------------------------------


def test_gaussian_int_equality_and_hash():
    assert GaussianInt(1, 2) == GaussianInt(1, 2)
    assert GaussianInt(1, 2) != GaussianInt(2, 1)
    assert GaussianInt(1, 2) != (1, 2)
    assert (1, 2) != GaussianInt(1, 2)
    assert GaussianInt(1, 0) != 1
    assert hash(GaussianInt(1, 2)) == hash(GaussianInt(1, 2))
    assert len({GaussianInt(1, 2), GaussianInt(1, 2), GaussianInt(2, 1)}) == 2


def test_records_equal_only_their_own_class():
    assert EvalBudget(10, 8) != (10, 8)
    assert EvalBudget(10, 8) != EvalBudget(10, 7)
    assert FamilySpec("f", X, Y, 1) != FamilySpec("g", X, Y, 1)
    assert FamilySpec("f", X, Y, 1) != ("f", X, Y, 1, 0)
    report = CrossCheckReport(1, 1, {}, True, None)
    assert report != CrossCheckReport(1, 2, {}, True, None)
    assert report != (1, 1, {}, True, None)


def test_record_hashes():
    assert hash(EvalBudget()) == hash(EvalBudget(10, 8))
    assert len({EvalBudget(), EvalBudget(10, 8), EvalBudget(9)}) == 2
    assert hash(FamilySpec("f", X, Y, 1)) == hash(FamilySpec("f", X, Y, 1, 0))
    # a report holds a dict of values, so it has no hash
    with pytest.raises(TypeError):
        hash(CrossCheckReport(1, 1, {}, True, None))


# --- repr -----------------------------------------------------------------


def test_reprs():
    assert repr(GaussianInt(1, 0)) == "GaussianInt(re=1, im=0)"
    assert repr(GaussianInt(-3, 4)) == "GaussianInt(re=-3, im=4)"
    assert repr(EvalBudget()) == "EvalBudget(max_det_order=10, max_per_order=8)"
    assert repr(FamilySpec("f", X, ONE, None)) == (
        "FamilySpec(name='f', xsub=BivarPoly(x), ysub=BivarPoly(1), p=None, index_offset=0)"
    )
    assert repr(CrossCheckReport(1, 1, {"recurrence": ONE}, False, ("recurrence", "det-w"))) == (
        "CrossCheckReport(p=1, n=1, values={'recurrence': BivarPoly(1)}, all_equal=False,"
        " first_mismatch=('recurrence', 'det-w'))"
    )


# --- immutability ---------------------------------------------------------

RECORDS = [
    (GaussianInt(1, 2), "re"),
    (EvalBudget(), "max_det_order"),
    (FamilySpec("f", X, Y, 1), "p"),
    (CrossCheckReport(1, 1, {}, True, None), "all_equal"),
]


@pytest.mark.parametrize("record, field", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_refuse_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == before


@pytest.mark.parametrize("record, field", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_copy_and_pickle(record, field):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_dataclass_helpers_still_apply():
    # ``dataclasses.replace`` makes a corrupted report in the benchmark's
    # self-test, so the helpers keep working on the record types
    report = cross_check(1, 3)
    unequal = dataclasses.replace(report, all_equal=False)
    assert type(unequal) is CrossCheckReport
    assert (unequal.values, unequal.all_equal) == (report.values, False)
    assert [f.name for f in dataclasses.fields(EvalBudget)] == ["max_det_order", "max_per_order"]
    assert dataclasses.asdict(GaussianInt(1, 2)) == {"re": 1, "im": 2}
    with pytest.raises(ValueError):
        dataclasses.replace(EvalBudget(), max_det_order=0)

