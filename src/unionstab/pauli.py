"""Pauli operators as binary (x|z) vector pairs with a tracked sign.

A ``PauliVector`` with parts (x|z) and sign s stands for the Hermitian
operator s * prod_i i^(x_i z_i) X_i^(x_i) Z_i^(z_i), i.e. Y carries its
usual imaginary unit internally so that every represented operator is
Hermitian with eigenvalues +-1.  Only signs +-1 are tracked; products
that would produce a +-i phase (anticommuting factors) are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadSymbol, LengthMismatch

__all__ = [
    "PauliVector",
    "pauli_parse",
    "pauli_str",
    "pauli_from_parts",
    "symplectic_ip",
    "pauli_weight",
    "pauli_mul",
    "pauli_matrix",
]

_SYMBOLS = "IXZY"  # index = x + 2*z


@dataclass
class PauliVector:
    """An n-qubit Pauli operator in binary symplectic representation."""

    x: np.ndarray
    z: np.ndarray
    sign: int = 1

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.uint8) % 2
        self.z = np.asarray(self.z, dtype=np.uint8) % 2
        if self.x.shape != self.z.shape:
            raise LengthMismatch("x and z parts differ in length")
        if self.sign not in (1, -1):
            raise BadSymbol("sign must be +1 or -1")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def __str__(self) -> str:
        return pauli_str(self)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PauliVector)
                and self.sign == other.sign
                and np.array_equal(self.x, other.x)
                and np.array_equal(self.z, other.z))

    def __hash__(self):
        return hash((self.sign, self.x.tobytes(), self.z.tobytes()))


def pauli_from_parts(x, z, sign: int = 1) -> PauliVector:
    return PauliVector(x=np.asarray(x, dtype=np.uint8),
                       z=np.asarray(z, dtype=np.uint8), sign=sign)


def identity(n: int) -> PauliVector:
    return PauliVector(x=np.zeros(n, np.uint8), z=np.zeros(n, np.uint8))


def pauli_parse(s: str) -> PauliVector:
    """Parses e.g. "-XXZIZ"; qubit 1 is the leftmost symbol."""
    s = s.strip()
    sign = 1
    if s[:1] in "+-":
        sign = -1 if s[0] == "-" else 1
        s = s[1:]
    if not s:
        raise BadSymbol("empty operator string")
    x = np.zeros(len(s), np.uint8)
    z = np.zeros(len(s), np.uint8)
    for i, ch in enumerate(s.upper()):
        if ch not in _SYMBOLS:
            raise BadSymbol(f"unknown Pauli symbol {ch!r}")
        idx = _SYMBOLS.index(ch)
        x[i] = idx & 1
        z[i] = idx >> 1
    return PauliVector(x=x, z=z, sign=sign)


def pauli_str(p: PauliVector) -> str:
    body = "".join(_SYMBOLS[int(a) + 2 * int(b)] for a, b in zip(p.x, p.z))
    return ("-" if p.sign < 0 else "") + body


def symplectic_ip(p: PauliVector, q: PauliVector) -> int:
    """Symplectic inner product; 0 iff the operators commute."""
    if p.n != q.n:
        raise LengthMismatch("operators act on different qubit counts")
    return int((p.x & q.z).sum() + (p.z & q.x).sum()) % 2


def pauli_weight(p: PauliVector) -> int:
    """Number of non-identity tensor factors."""
    return int((p.x | p.z).sum())


# single-qubit product table: (a, b) -> (c, i-phase exponent mod 4)
# with symbols indexed I=0, X=1, Z=2, Y=3 (= x + 2z)
_MUL_PHASE = np.zeros((4, 4), dtype=np.int64)
for _a in range(4):
    for _b in range(4):
        if _a == 0 or _b == 0 or _a == _b:
            _MUL_PHASE[_a, _b] = 0
        else:
            # XZ=-iY, ZX=iY, XY=iZ, YX=-iZ, ZY=-iX, YZ=iX
            cyc = {(1, 2): 3, (2, 1): 1, (1, 3): 1, (3, 1): 3,
                   (2, 3): 3, (3, 2): 1}
            _MUL_PHASE[_a, _b] = cyc[(_a, _b)]


def pauli_mul(p: PauliVector, q: PauliVector) -> PauliVector:
    """Product of two commuting Pauli operators (sign tracked exactly)."""
    if p.n != q.n:
        raise LengthMismatch("operators act on different qubit counts")
    a = p.x + 2 * p.z
    b = q.x + 2 * q.z
    phase = int(_MUL_PHASE[a, b].sum()) % 4
    if phase % 2:
        raise BadSymbol("product of anticommuting operators has an i phase")
    sign = p.sign * q.sign * (1 if phase == 0 else -1)
    return PauliVector(x=p.x ^ q.x, z=p.z ^ q.z, sign=sign)


# ---------------------------------------------------------------------------
# Dense form (verification oracle)

_I2 = np.eye(2, dtype=np.complex128)
_X2 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z2 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_DENSE = (_I2, _X2, _Z2, _Y2)  # index = x + 2z


def pauli_matrix(p: PauliVector) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the operator (small n only)."""
    out = np.array([[p.sign]], dtype=np.complex128)
    for a, b in zip(p.x, p.z):
        out = np.kron(out, _DENSE[int(a) + 2 * int(b)])
    return out
