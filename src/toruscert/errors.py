"""Exception types shared across the package."""


class GraphError(ValueError):
    """Base class for graph construction and validation failures."""


class SlotCollision(GraphError):
    """Two edge ends claim the same endpoint slot, or a slot is unused."""


class LabelBlockViolation(GraphError):
    """A vertex label cycle is not a periodic run of the opposite labels."""


class ParityContradiction(GraphError):
    """An edge sign disagrees with the parity classes of its endpoints."""


class NotCellular(GraphError):
    """The derived surface of a rotation system has the wrong genus."""


class FamilyTooSmall(ValueError):
    """A parallel family is too small to induce a full label permutation."""


class WrongDelta(ValueError):
    """A jumping-number-one check was requested at a distance other than 6."""


class WrongFrame(ValueError):
    """A homology computation mixed classes from different torus frames."""


class NonPrimitive(ValueError):
    """A slope computation received a non-primitive homology class."""


class ScaleLimit(RuntimeError):
    """Requested parameters exceed the configured desk-scale caps."""


class InvariantViolation(RuntimeError):
    """An internal invariant of the engine failed: a bug, not bad input."""
