"""Exception hierarchy shared across the toolkit."""


class UnionStabError(Exception):
    """Base class for all toolkit errors."""


class CapExceeded(UnionStabError):
    """An enumeration would exceed the configured word cap."""


class BadParams(UnionStabError, ValueError):
    """Invalid construction parameters."""


class BadDegree(BadParams):
    """Galois ring extension degree must be odd and within range."""


class BadSymbol(UnionStabError, ValueError):
    """Unknown symbol in a Pauli operator string."""


class LengthMismatch(UnionStabError, ValueError):
    """Operands act on different numbers of qubits."""


class NonIntegralTransform(UnionStabError):
    """MacWilliams transform produced non-integral or negative coefficients."""


class NotASubcode(UnionStabError):
    """A vector required to lie in a code (or its mod-2 reduction) does not."""


class ConstructionMismatch(UnionStabError):
    """A built or parsed object failed a check; the message names the item."""


class NotNested(UnionStabError):
    """rebase requires one base to contain the other."""


class NotAUnionOfCosets(UnionStabError):
    """The code is not a union of cosets of the requested base."""


class StrategyInfeasible(UnionStabError):
    """The selected distance strategy cannot run within its cap."""


class NotCommuting(UnionStabError):
    """Stabilizer generators must pairwise commute."""


class DependentGenerators(UnionStabError):
    """Stabilizer generators must be independent."""


class NotDualContaining(UnionStabError):
    """CSS construction requires dual(c2) inside c1."""


class BadChain(UnionStabError):
    """Enlargement requires dual(c) in c, c strictly inside c_prime, k' > k+1."""


class BadMap(UnionStabError):
    """Enlargement map must be invertible and fixed-point free."""


class DuplicateCoset(UnionStabError):
    """Translations must lie in pairwise-distinct normalizer cosets."""


class NotPureEnough(UnionStabError):
    """Search graph requires the base code to be pure up to the target distance."""


class NonCliffordGate(UnionStabError):
    """Pauli conjugation is only defined for Clifford gates."""


class TooManyQubits(UnionStabError):
    """Dense simulation is capped at a small number of qubits."""


class NotFound(UnionStabError):
    """Breadth-first synthesis exhausted its gate budget."""

    def __init__(self, max_gates: int):
        super().__init__(f"no circuit found with at most {max_gates} gates")
        self.max_gates = max_gates


class CollisionAfterReduction(UnionStabError):
    """Two translations reduced to the same coset label."""
