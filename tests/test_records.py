"""The nine frozen record types keep the behaviour of the frozen dataclasses
they replaced: constructor, immutability, eq, hash, repr, ``__match_args__``
and pickling, with ``ZeroEntry._finish`` outside eq, hash, repr and
``__match_args__``."""

import copyreg
import pickle

import pytest

from dinicert import (CertReport, CriticalOrder, DiniFamily, FactorizationCheck, Order,
                      SumCriterion, ZeroEntry, ZeroTable, find_zeros)
from dinicert.selftest import CheckResult

FAM = DiniFamily(1.0, 0.5)
ENTRY = ZeroEntry(1, 2.0, 1.0, 3.0, (1.0, 0.5))
SUM = SumCriterion(FAM, 0.5, 0.25, 12, 0.125, 0.5)
SUM_TEXT = ("SumCriterion(family=DiniFamily(a=1.0, nu=0.5), closed_value=0.5, "
            "truncated_value=0.25, terms_used=12, tail_bound=0.125, threshold_margin=0.5)")

# type, constructor fields, their values, other values field by field, and
# the dataclass's repr of the record
CASES = [
    (Order, ("nu",), (0.5,), (0.75,), "Order(nu=0.5)"),
    (DiniFamily, ("a", "nu"), (1.0, 0.5), (2.0, 0.75), "DiniFamily(a=1.0, nu=0.5)"),
    (ZeroEntry, ("n", "zero", "lo", "hi", "_finish"), (1, 2.0, 1.0, 3.0, (1.0, 0.5)),
     (2, 2.5, 1.5, 3.5, None), "ZeroEntry(n=1, zero=2.0, lo=1.0, hi=3.0)"),
    (ZeroTable, ("family", "tol", "entries"), (FAM, 1e-12, (ENTRY,)),
     (DiniFamily(2.0, 0.5), 1e-8, ()),
     "ZeroTable(family=DiniFamily(a=1.0, nu=0.5), tol=1e-12, "
     "entries=(ZeroEntry(n=1, zero=2.0, lo=1.0, hi=3.0),))"),
    (SumCriterion,
     ("family", "closed_value", "truncated_value", "terms_used", "tail_bound",
      "threshold_margin"),
     (FAM, 0.5, 0.25, 12, 0.125, 0.5), (DiniFamily(2.0, 0.5), 0.75, None, 11, None, 0.25),
     SUM_TEXT),
    (CriticalOrder, ("a", "nu_a", "lo", "hi", "residual", "sum_at_root"),
     (1.0, 0.3, 0.25, 0.375, 1e-16, 1.0), (2.0, 0.4, 0.125, 0.5, 0.0, 0.5),
     "CriticalOrder(a=1.0, nu_a=0.3, lo=0.25, hi=0.375, residual=1e-16, sum_at_root=1.0)"),
    (FactorizationCheck, ("n_zeros", "max_deviation", "envelope"), (3, 0.25, 0.5),
     (4, 0.5, 0.25), "FactorizationCheck(n_zeros=3, max_deviation=0.25, envelope=0.5)"),
    (CertReport,
     ("family", "verdict", "sum_criterion", "smallest_zero_margin", "min_re_starlike",
      "zero_at_unit_radius"),
     (FAM, "certified", SUM, 0.5, 0.25, False), (DiniFamily(2.0, 0.5), "refuted", None,
                                                 0.25, None, True),
     f"CertReport(family=DiniFamily(a=1.0, nu=0.5), verdict='certified', "
     f"sum_criterion={SUM_TEXT}, smallest_zero_margin=0.5, min_re_starlike=0.25, "
     f"zero_at_unit_radius=False)"),
    (CheckResult, ("id", "name", "passed", "detail"), (1, "name", True, "detail"),
     (2, "other", False, ""), "CheckResult(id=1, name='name', passed=True, detail='detail')"),
]


@pytest.mark.parametrize("cls, names, values, others, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
class TestRecord:
    def test_construction(self, cls, names, values, others, text):
        record = cls(*values)
        assert cls(**dict(zip(names, values))) == record
        assert tuple(getattr(record, k) for k in names) == values
        if cls is CertReport:
            assert cls(*values[:-1]) == record  # zero_at_unit_radius=False

    def test_bad_arguments(self, cls, names, values, others, text):
        with pytest.raises(TypeError):
            cls()  # missing
        with pytest.raises(TypeError):
            cls(*values, values[-1])  # extra
        with pytest.raises(TypeError):
            cls(*values, **{names[0]: values[0]})  # repeated
        with pytest.raises(TypeError):
            cls(*values, unknown=1)

    def test_frozen(self, cls, names, values, others, text):
        record = cls(*values)
        for k in (*names, "unknown"):
            with pytest.raises(AttributeError):
                setattr(record, k, 0)
            with pytest.raises(AttributeError):
                delattr(record, k)
        assert tuple(getattr(record, k) for k in names) == values
        assert not hasattr(record, "unknown")

    def test_eq_and_hash(self, cls, names, values, others, text):
        record, public = cls(*values), tuple(v for k, v in zip(names, values) if k[0] != "_")
        assert record == cls(*values) and hash(record) == hash(cls(*values))
        assert hash(record) == hash(public)  # the dataclass's hash of the field tuple
        assert record != public and record.__eq__(public) is NotImplemented
        for i, k in enumerate(names):
            changed = cls(*values[:i], others[i], *values[i + 1:])
            assert (changed == record) is (k[0] == "_"), k

    def test_repr(self, cls, names, values, others, text):
        assert repr(cls(*values)) == text

    def test_match_args(self, cls, names, values, others, text):
        assert cls.__match_args__ == tuple(k for k in names if k[0] != "_")
        match cls(*values):
            case cls(first):  # noqa: F841 -- binds by position through __match_args__
                assert first == values[0]

    def test_pickle(self, cls, names, values, others, text):
        record = cls(*values)
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls and copy == record and repr(copy) == text

    def test_pickle_without_key(self, cls, names, values, others, text):
        # the state that the frozen dataclasses pickled: the fields, no _key
        copy = pickle.loads(pickle.dumps(Legacy(cls, dict(zip(names, values)))))
        record = cls(*values)
        assert type(copy) is cls and copy == record and hash(copy) == hash(record)
        assert repr(copy) == text


class Legacy:
    """Pickles as a record of ``cls`` with ``state`` as its ``__dict__``, as
    the frozen dataclasses did; ``__class__`` passes pickle's check that
    ``__newobj__`` makes an object of the pickled one's class."""

    def __init__(self, cls, state):
        self.cls, self.state = cls, state

    @property
    def __class__(self):
        return self.cls

    def __reduce__(self):
        return copyreg.__newobj__, (self.cls,), self.state


def test_dataclass_pickle_loads_whole():
    family = pickle.loads(pickle.dumps(Legacy(DiniFamily, {"a": 1.0, "nu": 0.5})))
    assert family == FAM and hash(family) == hash(FAM)
    assert repr(family) == "DiniFamily(a=1.0, nu=0.5)"


def test_zero_entry_private_state():
    """``_finish`` takes no part in eq, hash or repr; ``residual`` is formed on
    first read, cached, and kept by a pickle round trip."""
    entry = find_zeros(DiniFamily(1.0, 0.5), 1).entries[0]
    other = ZeroEntry(entry.n, entry.zero, entry.lo, entry.hi, (1, 1, 0.0, 53))
    assert other == entry and hash(other) == hash(entry) and repr(other) == repr(entry)
    assert "residual" not in vars(entry)
    assert entry.residual is entry.residual and "residual" in vars(entry)
    fresh = find_zeros(DiniFamily(1.0, 0.5), 1).entries[0]
    copy = pickle.loads(pickle.dumps(fresh))
    assert "residual" not in vars(copy) and copy._finish == fresh._finish
    assert copy.residual == entry.residual
    assert pickle.loads(pickle.dumps(entry)).residual == entry.residual
