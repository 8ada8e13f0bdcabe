from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from unionstab import pauli, stab, unioncode

FIVE_QUBIT_STABILIZER = ["XXXXX", "XXZIZ", "XZIZX", "YIYZZ", "YZZYI"]
FIVE_QUBIT_TRANSLATIONS = ["IIIII", "IIZZX", "IIIXX", "IIIZY", "IIZYY",
                           "IIZXZ"]
CANONICAL_LABELS = ["00000", "01010", "11011", "01111", "11100", "10010"]
# ten random 6-bit inputs needing 10 gates; uncapped, the search takes GBs
SEED3_LABELS = [format(int(v), "06b") for v in
                np.random.default_rng(3).choice(64, 10, replace=False)]


@pytest.fixture(scope="session")
def five_base() -> stab.StabilizerCode:
    gens = [pauli.pauli_parse(s) for s in FIVE_QUBIT_STABILIZER]
    return stab.stabilizer_from_generators(gens)


@pytest.fixture(scope="session")
def five_union(five_base) -> unioncode.UnionStabilizerCode:
    ts = [pauli.pauli_parse(s) for s in FIVE_QUBIT_TRANSLATIONS]
    return unioncode.union_code(five_base, ts)


GRAPH_STATE_STABILIZER = ["XZIIZ", "ZXZII", "IZXZI", "IIZXZ", "ZIIZX"]


@pytest.fixture(scope="session")
def graph_state_code() -> stab.StabilizerCode:
    """Self-dual five-qubit ring graph state (k = 0, distance 3)."""
    gens = [pauli.pauli_parse(s) for s in GRAPH_STATE_STABILIZER]
    return stab.stabilizer_from_generators(gens)


@pytest.fixture(scope="session")
def bell_base() -> stab.StabilizerCode:
    gens = [pauli.pauli_parse("XX"), pauli.pauli_parse("ZZ")]
    return stab.stabilizer_from_generators(gens)


@pytest.fixture(scope="session")
def full_space_union(bell_base) -> unioncode.UnionStabilizerCode:
    """Dimension-4 union covering all of two-qubit space (distance 1)."""
    ts = [pauli.pauli_parse(s) for s in ["II", "XI", "ZI", "YI"]]
    return unioncode.union_code(bell_base, ts)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20260826)


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args, **kw) -> (fn's result, or the exception it
    raised, and the peak bytes tracemalloc traced during the call)."""
    def run(fn, *args, **kw):
        tracemalloc.start()
        try:
            try:
                out = fn(*args, **kw)
            except Exception as exc:
                out = exc
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return run
