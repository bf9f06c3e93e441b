"""Mutated edge lists and signal files: each is refused with an InputError or loads."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcast.data import load_series
from flowcast.errors import InputError
from flowcast.stgraph import load_spatial_graph

_EDGE_LISTS = [
    b"nodes 4\n0 1 1.5\n1 2\n2 3 0.25  # last edge\n",
    b"# sensor ids\ns7 s3\ns3 s9 2.0\n\ns9 s7 0.5\n",
]
_SIGNAL = (
    b"timestamp,0,1,2\n"
    b"2024-01-01T00:00:00,1.0,2.0,3.0\n"
    b"2024-01-01T00:05:00,4.5,0.0,1e3\n"
    b"2024-01-01T00:10:00,-1.0,2.5,3.0\n"
)
# a BOM, bytes that never start a UTF-8 sequence, a cut-off sequence, an
# encoded surrogate, and bytes the parsers split or skip on
_SPLICES = [b"\xef\xbb\xbf", b"\xff", b"\xfe", b"\xc3", b"\xed\xa0\x80", b"\x00", b"\r", b"#", b",", b" "]
# a 'nodes N' directive builds an N x N matrix, so no draw declares more
_MAX_NODES = 100


@st.composite
def _mutated(draw, base: bytes) -> bytes:
    data = bytearray(draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + base)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["flip", "delete", "insert", "splice"]))
        if kind == "flip" and at < len(data):
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif kind == "delete":
            del data[at : at + draw(st.integers(1, 8))]
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=6))
        else:
            data[at:at] = draw(st.sampled_from(_SPLICES))
    return bytes(data)


def _declares_too_many_nodes(data: bytes) -> bool:
    # str.splitlines cuts at every line break the loader cuts at, and more
    for line in data.decode("utf-8-sig", errors="replace").splitlines():
        parts = line.split("#", 1)[0].split()
        if len(parts) == 2 and parts[0] == "nodes":
            with contextlib.suppress(ValueError):
                if int(parts[1]) > _MAX_NODES:
                    return True
    return False


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=500, derandomize=True)
@given(data=st.sampled_from(_EDGE_LISTS).flatmap(_mutated))
def test_a_mutated_edge_list_is_refused_or_loads(scratch, data):
    if _declares_too_many_nodes(data):
        return
    path = scratch / "graph.txt"
    path.write_bytes(data)
    try:
        graph = load_spatial_graph(path)
    except InputError:
        return
    n = graph.n_nodes
    assert n >= 1 and len(graph.labels) == n and graph.adjacency.shape == (n, n)
    assert np.all(np.isfinite(graph.adjacency)) and np.all(graph.adjacency >= 0.0)


@settings(max_examples=500, derandomize=True)
@given(data=_mutated(_SIGNAL))
def test_a_mutated_signal_file_is_refused_or_loads(scratch, data):
    path = scratch / "signal.csv"
    path.write_bytes(data)
    try:
        series = load_series([str(path)])
    except InputError:
        return
    assert series.values.shape == (len(series.timestamps), len(series.labels), 1)
    assert series.n_steps >= 2 and np.all(np.isfinite(series.values))
