"""Exception types raised across the package."""


class DiqrngError(Exception):
    """Base class for all package-specific errors."""


# --- state and measurement machinery ---

class NonNormalizable(DiqrngError):
    """Amplitude vector cannot be normalized (zero, or too far from unit norm)."""


class BadDimension(DiqrngError):
    """Amplitude count is not a power of two in range, or labels are inconsistent."""


class BadTarget(DiqrngError):
    """Qubit index out of range for the state."""


# --- games ---

class ArityMismatch(DiqrngError):
    """Round inputs/outputs do not match the game's arity."""


class BadInput(DiqrngError):
    """Input outside the game's valid input set (e.g. odd-weight GHZ input)."""


class BadDistribution(DiqrngError, ValueError):
    """A weight table that is not a mapping, names an invalid input, or is not a normalized distribution."""


# --- protocols ---

class UnknownKind(DiqrngError):
    """Unrecognized adversarial device kind."""


class InsufficientRounds(DiqrngError):
    """A bin or cell required by the certification statistics is empty."""


class DeviceArityMismatch(DiqrngError):
    """Device pair does not accept the protocol's input/setting alphabet."""


# --- analysis ---

class EmptyCondition(DiqrngError):
    """No records satisfy the conditioning predicate."""


class MissingCell(DiqrngError):
    """An input cell required by a cell-averaged statistic has no records."""


class TooFewBits(DiqrngError):
    """Bit string shorter than the test battery's minimum length."""
