"""Text graph format: round trips and rejection of malformed files."""
import pytest

from toruscert import fileformat
from toruscert.errors import GraphError, SlotCollision
from tests.test_embedded import triple_loop_graph, two_vertex_graph

SQUARE = """\
# the square torus map: one vertex, two crossing loops, labels mod 2
v0 + : e0 e1 e0 e1
e0 + (0,0,1)-(0,2,1)
e1 + (0,1,2)-(0,3,2)
"""


def test_parse_square_map():
    g = fileformat.loads(SQUARE)
    assert g.num_vertices == 1
    assert g.num_edges == 2
    assert g.delta == 2 and g.n_opposite == 2
    assert g.fat.face_sizes() == (4,)


def test_round_trip():
    for g in (triple_loop_graph(3), two_vertex_graph(4, parities=(1, -1))):
        text = fileformat.dumps(g)
        back = fileformat.loads(text)
        assert fileformat.dumps(back) == text
        assert back.fat == g.fat
        assert [e.sign for e in back.edges] == [e.sign for e in g.edges]


def test_rejects_slot_mismatch():
    bad = SQUARE.replace("e0 + (0,0,1)-(0,2,1)", "e0 + (0,0,1)-(0,3,1)")
    with pytest.raises(SlotCollision):
        fileformat.loads(bad)


def test_rejects_unknown_lines_and_double_definitions():
    with pytest.raises(GraphError):
        fileformat.loads(SQUARE + "zzz\n")
    with pytest.raises(GraphError):
        fileformat.loads(SQUARE + "e1 + (0,1,2)-(0,3,2)\n")


def test_rejects_blocked_label_cycle():
    bad = """\
v0 + : e0 e0 e1 e1
e0 + (0,0,1)-(0,1,1)
e1 + (0,2,2)-(0,3,2)
"""
    # label cycle 1,1,2,2 is not a periodic run of the two labels
    with pytest.raises(GraphError):
        fileformat.loads(bad)
