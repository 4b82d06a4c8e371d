"""Exception hierarchy shared by all korosum modules."""


class KorosumError(Exception):
    """Base class for every error raised by this package."""


class NotSmooth(KorosumError):
    """An integer has a prime factor outside the configured prime set."""

    def __init__(self, n: int, leftover: int):
        self.n = n
        self.leftover = leftover
        super().__init__(
            f"{n} is not smooth over the prime set (leftover cofactor {leftover})"
        )


class NotCoprime(KorosumError):
    """Two integers required to be coprime share a factor."""

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b
        super().__init__(f"gcd({a}, {b}) != 1")


class OutOfRange(KorosumError):
    """An argument fell outside its documented range."""


class DegenerateRange(KorosumError):
    """The reduced-modulus construction has no valid exponent."""


class ScheduleViolation(KorosumError):
    """A normal-number schedule hypothesis is broken.

    Carries the name of the first broken hypothesis and the index at which
    it failed.
    """

    def __init__(self, hypothesis: str, index: int):
        self.hypothesis = hypothesis
        self.index = index
        super().__init__(f"schedule violates '{hypothesis}' at k={index}")


class ConfigError(KorosumError):
    """A scan configuration document is invalid.

    `field` is the dotted path of the offending entry.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


class BoundViolation(KorosumError):
    """An empirical sum exceeded a proven bound beyond numerical slack.

    This can only happen through an implementation bug, so the offending
    inputs are preserved for a counterexample dump.
    """

    def __init__(self, detail: dict):
        self.detail = detail
        super().__init__(f"bound violated beyond slack: {detail}")
