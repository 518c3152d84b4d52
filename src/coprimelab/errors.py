"""Exception types shared across the package."""


class GroupTheoryError(Exception):
    """Base class for all structured errors raised by coprimelab."""


class InputError(GroupTheoryError):
    """The input is refused, its message naming where: the CLI exits 2."""


class InvalidPermutation(InputError):
    """An image list is not a bijection of the point set."""


class CapExceeded(InputError):
    """Group closure grew past the enumeration cap."""


class NotNormal(GroupTheoryError):
    """A quotient was requested by a non-normal subgroup."""


class NotBijective(InputError):
    """Generator images induce a non-bijective map."""


class NotHomomorphism(InputError):
    """Generator images violate the homomorphism law; carries a witness pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotCoprime(GroupTheoryError):
    """The automorphism order shares a factor with the group order."""


class NotNilpotent(GroupTheoryError):
    """Operation requires a nilpotent group."""


class NotSoluble(GroupTheoryError):
    """Operation requires a soluble group."""


class NotAPGroup(GroupTheoryError):
    """Operation requires a group of prime-power order."""


class DecompositionNotFound(GroupTheoryError):
    """No twisted/fixed factorization exists; input violates the hypotheses."""


class NonUniqueDecomposition(GroupTheoryError):
    """More than one twisted/fixed factorization exists; input is corrupt."""


class NotElementaryAbelianLayer(GroupTheoryError):
    """A filtration quotient is not an elementary abelian p-group."""


class NotInvariant(GroupTheoryError):
    """A subgroup expected to be automorphism-invariant is not."""


class PreconditionViolated(GroupTheoryError):
    """A bound or an invariant the requested computation needs does not hold."""


class UnknownSpec(InputError):
    """Unrecognized corpus instance description."""


class ParseError(InputError):
    """Malformed input file; message carries the location."""
