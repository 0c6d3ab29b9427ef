"""The records keep the constructors they had as dataclasses.

``PINS`` lists each record's constructor parameters in order, with their
defaults, as the dataclass fields declared them.  A field that had a
``default_factory`` takes ``None`` and builds a fresh object per
instance (``FRESH``).  Only the records that something compares keep
value equality; the two that were frozen also keep their hash.
"""
import importlib
import inspect

import pytest

from cupone.linalg import AbelianInvariants
from cupone.model import KappaInvariant
from cupone.presentation import PresentedGroup
from cupone.rings import PreconditionError

PINS = [
    ("linalg", "SolveResult", "solution certificate"),
    ("linalg", "SNFResult", "diag rank nrows ncols row_ops col_ops"),
    ("linalg", "AbelianInvariants", "rank torsion"),
    ("model", "H2Gen", "order rep"),
    ("model", "ModelStage", "n ring gens diff target rho h1_names h2x "
     "h2_model=None h2_span=None ker_basis=None complete=False "
     "rho_zeta=None"),
    ("model", "PsiComparison", "p names dims_model dims_bar iso"),
    ("model", "KappaInvariant", "n cokernel"),
    ("model", "CompareVerdict", "distinguished left right forget_torsion"),
    ("model", "GroupRealization", "law law_rendered tower audit"),
    ("model", "HomotopyWitness", "Phi c audit"),
    ("presentation", "PresentedGroup", "generators relators"),
    ("presentation", "PresentationComplex", "group delta dual_hints "
     "relator_fan_cells inverse_gadgets bar_edges"),
    ("presentation", "CochainHint", "values is_cocycle"),
    ("massey", "MagnusPairings", "gens eps2 eps3"),
    ("massey", "MasseyResult", "coords indeterminacy representative"),
    ("massey", "CrossValidation", "ok sign2 sign3 cup_table massey_table "
     "messages=None"),
    ("massey", "GateReport", "ok details"),
    ("differential", "DSquaredReport", "passed checked failures=None"),
    ("delta", "MagmaComplex", "delta magma"),
    ("magma", "AdmissibilityVerdict", "status counterexample=None"),
    ("interval", "IntervalAlgebra", "delta ring t0 t1 u"),
    ("verify", "SuiteResult", "name cases failures=None"),
]

# record, its required arguments, the field with a fresh default, its type
FRESH = [
    ("model", "ModelStage", (None,) * 8, "rho_zeta", dict),
    ("differential", "DSquaredReport", (True, 0), "failures", list),
    ("massey", "CrossValidation", (True, None, None, {}, {}), "messages",
     list),
    ("verify", "SuiteResult", ("suite", 0), "failures", list),
]


def record(module: str, name: str):
    return getattr(importlib.import_module(f"cupone.{module}"), name)


def parameters(cls) -> str:
    return " ".join(
        p.name if p.default is p.empty else f"{p.name}={p.default!r}"
        for p in inspect.signature(cls).parameters.values())


@pytest.mark.parametrize("module, name, params", PINS,
                         ids=[name for _, name, _ in PINS])
def test_record_constructor_is_pinned(module, name, params):
    assert parameters(record(module, name)) == params


@pytest.mark.parametrize("module, name, args, attr, kind", FRESH,
                         ids=[name for _, name, *_ in FRESH])
def test_records_share_no_default(module, name, args, attr, kind):
    cls = record(module, name)
    a, b = cls(*args), cls(*args)
    assert type(getattr(a, attr)) is kind
    assert getattr(a, attr) is not getattr(b, attr)
    given = kind()
    assert getattr(cls(*args, **{attr: given}), attr) is given


@pytest.mark.parametrize("make, other", [
    (lambda: AbelianInvariants(1, (2, 4)), AbelianInvariants(1, (2,))),
    (lambda: PresentedGroup(("a", "b"), ((("a", 1), ("b", -1)),)),
     PresentedGroup(("a", "b"), ())),
], ids=["AbelianInvariants", "PresentedGroup"])
def test_frozen_records_compare_and_hash_by_value(make, other):
    x, y = make(), make()
    assert x is not y and x == y and hash(x) == hash(y)
    assert x != other and len({x, y, other}) == 2
    assert x != (x.__class__.__name__,)


def test_kappa_invariant_compares_by_value_and_stays_unhashable():
    x = KappaInvariant(2, AbelianInvariants(0, (2,)))
    assert x == KappaInvariant(2, AbelianInvariants(0, (2,)))
    assert x != KappaInvariant(2, AbelianInvariants(0, (3,)))
    assert x != KappaInvariant(3, AbelianInvariants(0, (2,)))
    with pytest.raises(TypeError):
        hash(x)


def test_presented_group_refuses_an_unknown_generator():
    with pytest.raises(PreconditionError) as e:
        PresentedGroup(("a",), ((("b", 1),),))
    assert str(e.value) == "relator uses unknown generator b"
