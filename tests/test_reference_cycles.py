"""Each entry point frees what it allocates by reference counting alone.

A recursive closure refers to itself through its cell, so a memo or output
list it captures stays alive in a reference cycle until the cyclic collector
runs.  With the collector off, a call must leave nothing for it to find.
"""

import gc

import pytest

from flagorbits.geometry import monomial_claim, slice_gram, slice_ideal
from flagorbits.orbit_graph import class_graph, w0_degree
from flagorbits.patterns import pattern_masks
from flagorbits.perms import enumerate_involutions, involution_rows, parse_perm, w0_class
from flagorbits.poly import determinant
from flagorbits.smoothness import classify, sweep, sweep_records


def _slice():
    pi = parse_perm("21436587")
    for v, _ in slice_ideal(pi, 4):
        monomial_claim(pi, v, 4)


CALLS = {
    "enumerate_involutions": lambda: enumerate_involutions(8),
    "w0_class": lambda: w0_class(10),
    "class_graph": lambda: class_graph(10),
    "w0_degree": lambda: w0_degree(parse_perm("21436587")),
    "pattern_masks": lambda: pattern_masks(involution_rows(7)),
    "determinant": lambda: determinant(slice_gram(3), (1, 2, 3, 4), (2, 3, 4, 5)),
    "slice_ideal+monomial_claim": _slice,
    "classify": lambda: classify(parse_perm("21436587")),
    "conjugate_witness": lambda: classify(parse_perm("21435")).conjugate_witness,
    "sweep": lambda: sweep(6),
    "sweep_records": lambda: sweep_records(sweep(6)),
}


@pytest.mark.parametrize("name", CALLS)
def test_call_leaves_no_reference_cycles(name):
    CALLS[name]()  # warm-up: per-size tables are cached, not garbage
    gc.collect()
    gc.disable()
    try:
        CALLS[name]()
        assert gc.collect() == 0
    finally:
        gc.enable()
