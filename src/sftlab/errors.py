"""Exception types shared across the package."""


class SftLabError(Exception):
    """Base class for all package-specific errors."""


class NotPrimitive(SftLabError):
    """The transition matrix has no power with all entries positive."""


class GapTooSmall(SftLabError):
    """Requested connector gap is below the primitivity index."""


class WordsTooShort(SftLabError):
    """An operation needs more symbols than the given words provide."""


class DepthExceedsEmpirical(SftLabError):
    """An empirical measure was asked for cylinders deeper than it records."""


class ShortFamily(SftLabError):
    """Greedy family construction stalled below its cardinality target."""

    def __init__(self, target, achieved, words=None):
        super().__init__(
            f"greedy family construction stalled at {achieved} of {target} words"
        )
        self.target = target
        self.achieved = achieved
        self.words = words if words is not None else []  # the achieved rows


class FamilyNotSeparated(SftLabError):
    """A word family handed to the gluing engine contains duplicates."""


class OrbitsNotDisjoint(SftLabError):
    """The two periodic orbits of a chaotic-family request intersect."""


class StationaryNotUnique(SftLabError):
    """A stochastic matrix has more than one closed class."""


class ZeroCylinder(SftLabError):
    """A cylinder with zero measure was hit where positive mass is required."""


class NotRecurrent(SftLabError):
    """The target cylinder is visited fewer than twice in the given word."""


class Degenerate(SftLabError):
    """Input data is degenerate for the requested estimate."""


class SpaceMismatch(SftLabError, ValueError):
    """A potential or a measure was handed to an operation on a space it is
    not defined on."""


class PerronNotPositive(SftLabError, ArithmeticError):
    """An eigensolver returned a Perron vector with a non-positive entry."""


class OutsideLf(SftLabError):
    """Level value lies outside the range of ergodic averages."""


class SingularProduct(SftLabError):
    """A matrix product along a cycle is numerically singular."""


class MalformedSchedule(SftLabError):
    """A schedule has no stages or an empty last stage, or a schedule
    record lacks a field or holds one that cannot be read."""


class MalformedTree(SftLabError):
    """A branching-tree stage has no options or options of unequal length."""


class LeafOutOfRange(SftLabError, IndexError):
    """A branching-tree leaf index lies outside [0, leaf count)."""


class BadCheckpoints(SftLabError):
    """A tracking report got no checkpoints or a non-positive horizon."""


class InfeasibleParams(SftLabError):
    """No admissible parameter choice satisfies the schedule inequalities."""


class BadParams(InfeasibleParams, ValueError):
    """An experiment param is not declared, or not of its default's type."""
