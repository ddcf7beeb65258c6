"""Every exported name resolves, so ``from framelab... import *`` works, and
every record that holds arrays compares and hashes by identity."""

import copy
import importlib
import pkgutil

import numpy as np
import pytest

import framelab
from framelab import (
    Field,
    OperatorFamily,
    TensorBasis,
    WeightedSpace,
    build_default,
    classify,
)
from framelab.heisenberg import CenterTranslateModel
from framelab.shiftinv import make_generator, zak_transform

MODULES = [
    "framelab",
    *(
        f"framelab.{info.name}"
        for info in pkgutil.iter_modules(framelab.__path__)
        if info.name != "__main__"
    ),
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_array_records_compare_by_identity():
    # A field-wise == would ask an array for its truth value (ValueError),
    # and a field-wise hash would hash an ndarray (TypeError).
    sp = WeightedSpace(4, 1, np.ones(4))
    fam = OperatorFamily(sp, build_default(4))
    records = [
        sp,
        Field(np.ones((4, 1))),
        fam.basis,
        fam.basis._form,
        TensorBasis(np.ones((4, 4)))._form,
        fam,
        classify(fam),
        make_generator("gaussian", 4),
        zak_transform(np.ones(8), 4, 2),
        CenterTranslateModel(0.5, 1, resolution=16),
    ]
    assert len({type(r) for r in records}) == 10
    for rec in records:
        twin = copy.copy(rec)
        assert rec == rec and not rec != rec
        assert rec != twin and not rec == twin
        assert hash(rec) == object.__hash__(rec)
        assert len({rec, twin}) == 2
