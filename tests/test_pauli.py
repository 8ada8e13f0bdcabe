from __future__ import annotations

import itertools

import numpy as np
import pytest

from unionstab import pauli
from unionstab.errors import BadSymbol, LengthMismatch


def all_paulis(n):
    for xz in itertools.product([0, 1], repeat=2 * n):
        yield pauli.PauliVector(x=np.array(xz[:n], np.uint8),
                                z=np.array(xz[n:], np.uint8))


def test_parse_str_round_trip():
    for s in ["IXZY", "-XYZI", "XX", "I"]:
        p = pauli.pauli_parse(s)
        assert pauli.pauli_str(p) == (s if s[0] == "-" else s)
    with pytest.raises(BadSymbol):
        pauli.pauli_parse("XQ")


def test_symplectic_ip_matches_dense_commutation():
    for p in all_paulis(2):
        for q in all_paulis(2):
            a, b = pauli.pauli_matrix(p), pauli.pauli_matrix(q)
            commute = np.allclose(a @ b, b @ a)
            assert pauli.symplectic_ip(p, q) == (0 if commute else 1)


def test_mul_matches_dense():
    for p in all_paulis(2):
        for q in all_paulis(2):
            if pauli.symplectic_ip(p, q):
                with pytest.raises(BadSymbol):
                    pauli.pauli_mul(p, q)
            else:
                r = pauli.pauli_mul(p, q)
                assert np.allclose(pauli.pauli_matrix(p) @
                                   pauli.pauli_matrix(q),
                                   pauli.pauli_matrix(r))


def test_mul_length_mismatch():
    with pytest.raises(LengthMismatch):
        pauli.pauli_mul(pauli.pauli_parse("XX"), pauli.pauli_parse("X"))


def test_sign_tracking():
    p = pauli.pauli_parse("-X")
    q = pauli.pauli_parse("-X")
    assert pauli.pauli_mul(p, q) == pauli.pauli_parse("I")
