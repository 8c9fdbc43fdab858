import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))
# the package under test is the one in this checkout's src/, with or without an install
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


@pytest.fixture
def dense_shapes(monkeypatch):
    """The shape of every dense operator matrix formed: given to the constructor, or formed on first read."""
    from renyi_ent import HermitianOperator

    shapes, init, prop = [], HermitianOperator.__init__, HermitianOperator.__dict__["entries"]

    def spy_init(self, entries, dims, spectrum=None):
        if spectrum is None:
            shapes.append(np.shape(entries))
        init(self, entries, dims, spectrum)

    def spy_form(op, form=prop.func):
        m = form(op)
        shapes.append(m.shape)
        return m

    monkeypatch.setattr(HermitianOperator, "__init__", spy_init)
    monkeypatch.setattr(prop, "func", spy_form)
    return shapes
