import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))
# the package under test is the one in this checkout's src/, with or without an install
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


@pytest.fixture
def dense_shapes(monkeypatch):
    """The shape of every dense array formed of an operator: a matrix given to the constructor or formed on
    first read, and a column-sparse basis or Xi factor made dense (``ColumnSparse.toarray``)."""
    from renyi_ent import HermitianOperator
    from renyi_ent.linalg import ColumnSparse

    shapes, init, prop, toarray = [], HermitianOperator.__init__, HermitianOperator.__dict__["entries"], ColumnSparse.toarray

    def spy_init(self, entries, dims, spectrum=None):
        if spectrum is None:
            shapes.append(np.shape(entries))
        init(self, entries, dims, spectrum)

    def spy_form(op, form=prop.func):
        m = form(op)
        shapes.append(m.shape)
        return m

    def spy_toarray(a):
        shapes.append(a.shape)
        return toarray(a)

    monkeypatch.setattr(HermitianOperator, "__init__", spy_init)
    monkeypatch.setattr(prop, "func", spy_form)
    monkeypatch.setattr(ColumnSparse, "toarray", spy_toarray)
    return shapes
