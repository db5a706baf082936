"""Malformed checkpoints and certificates raise DucaError naming the record."""

import re

import numpy as np
import pytest

from duca.engine import dump_state, load_state, run
from duca.errors import DucaError
from duca.graphs import Variant, make_setting, random_connected_graph
from duca.oracle import centralized_solve, dump_certificate, load_certificate
from duca.problem import generate_example


def _state_text():
    pb = generate_example(5, 2, 1, 1, seed=2)
    s = make_setting(Variant.DUCA_I, random_connected_graph(5, 6, seed=2), rho=1.0)
    return dump_state(run(pb, s, 3, y0=np.ones((5, pb.mp))))


def _certificate_text():
    pb = generate_example(4, 2, 1, 1, seed=2)
    return dump_certificate(pb, centralized_solve(pb), 1e-9)


def _edit(text, head, new_line, offset=0):
    """``text`` with the line ``offset`` after the first one starting ``head`` replaced."""
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith(head)) + offset
    lines[k] = new_line
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("head,new_line,offset,message", [
    ("int k ", "int k two", 0, "int 'k': malformed number in 'two'"),
    ("int k ", "int k 3 4", 0, "int 'k': expected one value, got 2"),
    ("int k ", "int k", 0, "int 'k': expected one value, got 0"),
    ("float moreau_residual ", "float moreau_residual x", 0,
     "float 'moreau_residual': malformed number in 'x'"),
    ("bool double_mode ", "bool double_mode no", 0,
     "bool 'double_mode': malformed number in 'no'"),
    ("bool double_mode ", "bool double_mode 7", 0, "bool 'double_mode': expected 0 or 1, got 7"),
    ("bool double_mode ", "bool double_mode -1", 0,
     "bool 'double_mode': expected 0 or 1, got -1"),
    ("array X ", "array X 2 5 two", 0, "array 'X': malformed number in '2 5 two'"),
    ("array X ", "array X 3 5 2", 0, "array 'X': bad shape record"),
    ("array X ", "0.0 oops", 1, "array 'X': malformed number in '0.0 oops'"),
])
def test_malformed_state_names_the_record(head, new_line, offset, message):
    with pytest.raises(DucaError, match=re.escape(message)):
        load_state(_edit(_state_text(), head, new_line, offset))


@pytest.mark.parametrize("head,new_line,offset,message", [
    ("int n_agents ", "int n_agents four", 0, "int 'n_agents': malformed number in 'four'"),
    ("ints dims ", "ints dims 4 2 2 x 2", 0, "ints 'dims': malformed number in '4 2 2 x 2'"),
    ("ints dims ", "ints dims", 0, "ints 'dims': missing count"),
    ("float l1_weight ", "float l1_weight 1,0", 0,
     "float 'l1_weight': malformed number in '1,0'"),
    ("array Q ", "1.0 - 2.0", 1, "array 'Q': malformed number in '1.0 - 2.0'"),
    ("float f_star ", "float f_star", 0, "float 'f_star': expected one value, got 0"),
])
def test_malformed_certificate_names_the_record(head, new_line, offset, message):
    with pytest.raises(DucaError, match=re.escape(message)):
        load_certificate(_edit(_certificate_text(), head, new_line, offset))
