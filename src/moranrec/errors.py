"""Exception types shared across the package."""


class MoranRecError(Exception):
    """Base class for all errors raised by this package."""


class OverlapError(MoranRecError):
    """Blocks or site sets that must be disjoint intersect."""


class EmptyBlockError(MoranRecError):
    """A partition block is empty."""


class GroundMismatchError(MoranRecError):
    """Two partitions do not share the same ground set."""


class NotSubsetError(MoranRecError):
    """A site set is not contained in the required ground set."""


class NotComparableError(MoranRecError):
    """The first partition does not refine the second."""


class SizeCapError(MoranRecError):
    """A configured size cap would be exceeded."""


class NotOrderedPartitionError(MoranRecError):
    """The partition is not an ordered partition into at most two parts."""


class ZeroMeasureError(MoranRecError):
    """Normalization of the zero measure was requested."""


class NegativeWeightError(MoranRecError):
    """An operation would drive a population weight below zero."""


class SampleTooLargeError(MoranRecError):
    """More distinct individuals requested than the population holds."""


class InvalidInitialError(MoranRecError):
    """The initial state is not admissible for the chosen model variant."""


class ShapeError(MoranRecError):
    """An operation requires a specific number of sites."""


class ConfigError(MoranRecError):
    """A run configuration failed validation."""


class OutputCheckError(MoranRecError):
    """A computed output failed its postcondition and was not written."""
