"""The result records are immutable named tuples: frozen, hashed and
compared by value, with the repr and validation of their field lists."""

import os
import subprocess
import sys

import pytest

import cmlocus
from cmlocus.arith import OrderDisc, ValidationError
from cmlocus.fields import FieldSymbol, K, compose_rcf
from cmlocus.graph import build_graph, enumerate_paths, geometric_points
from cmlocus.locus import fiber_X0MN
from cmlocus.tables import path_classes


def _records():
    order = OrderDisc.from_parts(-4, 1)
    report = fiber_X0MN(order, 1, 5)
    g = build_graph(-4, 5, 1, 2)
    paths = enumerate_paths(g, 0, 2)
    edge = paths[0].edges[0]
    return [
        order,
        K(6, -3),
        compose_rcf([K(2, -3), K(3, -3)]),
        path_classes(order, 5, 2)[0],
        report,
        report.classes[0],
        edge.src,
        edge,
        paths[0],
        geometric_points(g, paths)[0],
    ]


@pytest.mark.parametrize("rec", _records(), ids=lambda r: type(r).__name__)
def test_record_is_frozen_and_hashed_by_value(rec):
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], None)
    with pytest.raises(AttributeError):
        rec.extra = 1
    twin = type(rec)(*rec)
    assert twin == rec and hash(twin) == hash(rec) == hash(tuple(rec))


def test_reprs_keep_their_text():
    assert repr(K(6, -3)) == "FieldSymbol(base='K', m=6, delta_K=-3)"
    assert repr(OrderDisc.from_parts(-3, 2)) == "OrderDisc(delta=-12, delta_K=-3, f=2)"
    assert str(K(6, -3)) == "K(6)"


def test_validation_runs_on_construction():
    with pytest.raises(ValidationError):
        FieldSymbol("X", 1, -4)
    with pytest.raises(ValidationError):
        OrderDisc(-16, -4, 3)


def test_make_and_replace_validate():
    with pytest.raises(ValidationError):
        OrderDisc._make((5, 5, 1))
    with pytest.raises(ValidationError):
        FieldSymbol("K", 2, -4)._replace(delta_K=-7)
    assert OrderDisc._make((-36, -4, 3)) == OrderDisc.from_parts(-4, 3)
    assert K(6, -3)._replace(m=2) == K(2, -3)


def test_cli_import_leaves_out_dataclasses():
    # a fresh interpreter: pytest itself imports dataclasses
    src = os.path.dirname(os.path.dirname(cmlocus.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, cmlocus.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert out.stdout == "False\n"
