"""The record types: named tuples with the behaviour of frozen records.

Every record keeps the ``repr`` text, equality, hashing, pickling and
immutability it had as a frozen dataclass.  ``Geometry``, ``AtomPairParams``
and ``TimeGrid`` validate on construction and on ``_replace``.  Being
tuples, records also iterate, index and compare equal to a plain tuple of
the same values.
"""
import math
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twoatom
from twoatom.couplings import CouplingRates, Geometry, GeometryError
from twoatom.dynamics import AtomPairParams, Propagators, TimeGrid
from twoatom.entanglement import EntanglementReport
from twoatom.scenarios import Scenario, SweepRow, Trajectory
from twoatom.statespace import BellState4, BlockState, CollectiveState, Diagnostics

# each record with the repr its frozen dataclass gave
SCALAR_RECORDS = [
    (Geometry(math.pi / 6), "Geometry(x=0.5235987755982988, mu_dot_r=0.0)"),
    (
        CouplingRates(1.0, 0.9459687343404735, 4.652110961561577),
        "CouplingRates(gamma=1.0, gamma12=0.9459687343404735, omega12=4.652110961561577)",
    ),
    (
        AtomPairParams(gamma12=0.95, omega12=4.65, delta=-2.5),
        "AtomPairParams(gamma=1.0, gamma12=0.95, omega12=4.65, delta=-2.5)",
    ),
    (TimeGrid(0.5, 6.0, 700), "TimeGrid(t_start=0.5, t_end=6.0, n_points=700)"),
    (
        EntanglementReport(0.5, 0.25, 0.5, -0.25, 1.0, 0.75),
        "EntanglementReport(concurrence=0.5, negativity=0.25, c1=0.5, c2=-0.25, "
        "c1_plus=1.0, c2_plus=0.75)",
    ),
    (
        BlockState(r33=0.5, r44=0.5, r34=-0.5 + 0j),
        "BlockState(r11=0.0, r22=0.0, r33=0.5, r44=0.5, r12=0j, r34=(-0.5+0j))",
    ),
    (
        BellState4(p11=0.25, p12=0.125j),
        "BellState4(p11=0.25, p22=0.0, p33=0.0, p44=0.0, p12=0.125j, p34=0j)",
    ),
    (
        CollectiveState(rgg=0.25, ree=0.75, reg=0.5 - 0.25j),
        "CollectiveState(rgg=0.25, ree=0.75, rss=0.0, raa=0.0, reg=(0.5-0.25j), ras=0j)",
    ),
    (
        Diagnostics(0.0, 1e-12, -0.125),
        "Diagnostics(hermiticity_residual=0.0, trace_residual=1e-12, min_eigenvalue=-0.125)",
    ),
    (
        Scenario(),
        "Scenario(initial='atom1_excited', custom_state=None, x=0.5235987755982988, "
        "mu_dot_r=0.0, gamma=1.0, gamma12=None, omega12=None, delta=0.0, "
        "grid=TimeGrid(t_start=0.0, t_end=3.0, n_points=3000), "
        "outputs=('concurrence', 'negativity', 'populations', 'coherences', 's_squared'))",
    ),
    (
        Scenario(initial="custom", custom_state=BlockState(r11=1.0), delta=1.5, gamma12=0.5,
                 omega12=2.0, grid=TimeGrid(0.0, 4.0, 50), outputs=("concurrence",)),
        "Scenario(initial='custom', custom_state=BlockState(r11=1.0, r22=0.0, r33=0.0, "
        "r44=0.0, r12=0j, r34=0j), x=0.5235987755982988, mu_dot_r=0.0, gamma=1.0, "
        "gamma12=0.5, omega12=2.0, delta=1.5, grid=TimeGrid(t_start=0.0, t_end=4.0, "
        "n_points=50), outputs=('concurrence',))",
    ),
    (
        SweepRow(0.5, 0.85, 0.16, 0.26),
        "SweepRow(value=0.5, first_max_c=0.85, t_first_max=0.16, c_at_t5=0.26, error='')",
    ),
    (
        SweepRow(1.5, math.nan, math.nan, math.nan, "|gamma12| must not exceed gamma, got 1.5"),
        "SweepRow(value=1.5, first_max_c=nan, t_first_max=nan, c_at_t5=nan, "
        "error='|gamma12| must not exceed gamma, got 1.5')",
    ),
]
_HALF = np.array([0.0, 0.5])
ARRAY_RECORDS = [
    (
        Propagators(None, np.zeros((1, 1, 2, 2))),
        "Propagators(start=None, powers=array([[[[0., 0.],\n         [0., 0.]]]]))",
    ),
    (
        Trajectory(*[_HALF] * 10),
        "Trajectory(t=array([0. , 0.5]), concurrence=array([0. , 0.5]), "
        "negativity=array([0. , 0.5]), rho_ee=array([0. , 0.5]), rho_ss=array([0. , 0.5]), "
        "rho_aa=array([0. , 0.5]), rho_gg=array([0. , 0.5]), re_rho_as=array([0. , 0.5]), "
        "im_rho_as=array([0. , 0.5]), s_squared=array([0. , 0.5]))",
    ),
]
RECORDS = SCALAR_RECORDS + ARRAY_RECORDS


def _id(case):
    return type(case[0]).__name__


def test_every_record_type_is_covered():
    types = {type(r) for r, _ in RECORDS}
    exported = {getattr(twoatom, name) for name in twoatom.__all__}
    records = {t for t in exported if isinstance(t, type) and issubclass(t, tuple)}
    assert records <= types
    assert len(types) == 13


@pytest.mark.parametrize("case", RECORDS, ids=_id)
def test_repr_is_the_dataclass_text(case):
    record, text = case
    assert repr(record) == text


@pytest.mark.parametrize("case", SCALAR_RECORDS, ids=_id)
def test_pickle_and_hash(case):
    record, _ = case
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert repr(back) == repr(record)
    if not any(isinstance(v, float) and math.isnan(v) for v in record):
        assert back == record
        assert hash(back) == hash(record)
    # a frozen dataclass hashed the tuple of its fields too
    assert hash(record) == hash(tuple(record))


@pytest.mark.parametrize("case", ARRAY_RECORDS, ids=_id)
def test_array_records_pickle_but_do_not_hash(case):
    record, _ = case
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert repr(back) == repr(record)
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("case", RECORDS, ids=_id)
def test_fields_cannot_be_assigned(case):
    record, _ = case
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0.0)
    with pytest.raises(AttributeError):
        record.extra = 0.0


def test_equality_and_tuple_semantics():
    g = Geometry(1.0, 0.5)
    assert g == Geometry(x=1.0, mu_dot_r=0.5)
    assert g != Geometry(1.0, 0.25)
    # the one difference from a dataclass: a record is a tuple of its values
    assert g == (1.0, 0.5)
    assert tuple(g) == (1.0, 0.5) and g[0] == 1.0 and len(g) == 2
    assert np.asarray(TimeGrid(0.0, 1.0, 3)).tolist() == [0.0, 1.0, 3.0]


def test_scenario_default_grid():
    assert Scenario().grid == TimeGrid(0.0, 3.0, 3000)
    assert Scenario().grid is Scenario().grid  # immutable, so it may be shared
    assert Scenario()._replace(delta=1.0) == Scenario(delta=1.0)


@pytest.mark.parametrize(
    "record,change,error",
    [
        (TimeGrid(0.0, 1.0, 10), {"n_points": 1}, "n_points must be between"),
        (TimeGrid(0.0, 1.0, 10), {"t_end": 0.0}, "t_end must exceed t_start"),
        (TimeGrid(0.0, 1.0, 10), {"t_start": math.nan}, "t_start must be finite"),
        (AtomPairParams(), {"gamma12": 1.5}, "|gamma12| must not exceed gamma"),
        (AtomPairParams(), {"delta": math.inf}, "delta must be finite"),
        (AtomPairParams(), {"gamma": 0.0}, "gamma must be > 0"),
        (Geometry(1.0), {"x": -1.0}, "separation k0*r12 must be > 0"),
        (Geometry(1.0), {"mu_dot_r": 2.0}, "|mu_dot_r| must be <= 1"),
    ],
)
def test_replace_validates(record, change, error):
    kind = GeometryError if isinstance(record, Geometry) else ValueError
    with pytest.raises(kind) as info:
        record._replace(**change)
    assert error in str(info.value)
    # _make, which _replace calls, validates too
    with pytest.raises(kind):
        type(record)._make(change.get(name, v) for name, v in zip(record._fields, record))


def test_replace_keeps_valid_records():
    assert TimeGrid(0.0, 1.0, 10)._replace(n_points=20) == TimeGrid(0.0, 1.0, 20)
    assert type(AtomPairParams()._replace(delta=2.0)) is AtomPairParams
    assert Geometry(1.0)._replace(mu_dot_r=-1.0) == Geometry(1.0, -1.0)


def test_cli_import_leaves_dataclasses_unloaded():
    src = str(Path(twoatom.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import twoatom.cli; "
        "print(sorted(m for m in ('dataclasses', 'copy') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
