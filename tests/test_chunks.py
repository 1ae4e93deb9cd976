"""Chunk boundaries: every chunked loop gives the same values at any CHUNK_ROWS.

`perms.CHUNK_ROWS` is patched in every module that imports it, to 1 (every
row its own chunk) and to 7 (chunks that split each size unevenly), and the
caches built in chunks are cleared around the patch.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import flagorbits
from flagorbits.bruhat import above, dominance_table
from flagorbits.orbit_graph import class_graph
from flagorbits.patterns import _level_masks, pattern_masks
from flagorbits.perms import involution_rows
from flagorbits.smoothness import sweep, sweep_records

SIZES = range(1, 9)
CHUNKED = {"perms", "bruhat", "orbit_graph", "patterns", "smoothness"}


def _values(m):
    """Everything a chunked loop computes at size m, with `above` for a
    spread of involutions pi against all rows."""
    rows = involution_rows(m)
    pis = rows[:: max(1, len(rows) // 24)].tolist()
    return {
        "records": sweep_records(sweep(m)),
        "class_graph": class_graph(m),
        "pattern_masks": pattern_masks(rows),
        "dominance_table": dominance_table(rows),
        "above": np.array([above(tuple(pi), rows) for pi in pis]),
    }


def _clear_caches():
    class_graph.cache_clear()
    _level_masks.cache_clear()


@pytest.fixture(scope="module")
def unpatched():
    _clear_caches()
    return {m: _values(m) for m in SIZES}


@pytest.mark.parametrize("chunk", [1, 7])
def test_chunked_loops_ignore_chunk_size(monkeypatch, unpatched, chunk):
    patched = set()
    for info in pkgutil.iter_modules(flagorbits.__path__):
        module = importlib.import_module(f"flagorbits.{info.name}")
        if hasattr(module, "CHUNK_ROWS"):
            monkeypatch.setattr(module, "CHUNK_ROWS", chunk)
            patched.add(info.name)
    assert patched == CHUNKED
    _clear_caches()
    try:
        for m in SIZES:
            got, want = _values(m), unpatched[m]
            assert got["records"] == want["records"], m
            for a, b in zip(got["class_graph"], want["class_graph"], strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b), m
            for name in ("pattern_masks", "dominance_table", "above"):
                a, b = got[name], want[name]
                assert a.dtype == b.dtype and np.array_equal(a, b), (name, m)
    finally:
        _clear_caches()
