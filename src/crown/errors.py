"""Exception types shared across the solvers.

Every error that carries structured data (a witness, an offending pair)
exposes it as attributes so callers can build machine-readable reports.
"""


class CrownError(Exception):
    """Base class for all library errors."""


class OverlapError(CrownError):
    """Two boxes overlap in their interiors."""

    def __init__(self, a, b):
        self.a = a
        self.b = b
        super().__init__(f"boxes {a!r} and {b!r} overlap")


class DuplicateIdError(CrownError):
    """The same box id occurs twice."""

    def __init__(self, box_id):
        self.box_id = box_id
        super().__init__(f"duplicate box id {box_id!r}")


class ParameterError(CrownError, ValueError):
    """A solver parameter lies outside its allowed range."""


class TooLargeError(CrownError):
    """Instance exceeds the guard limits of an exact solver."""


class NotATreeError(CrownError):
    """Input graph is not a tree."""


class NotPlanarError(CrownError):
    """Input graph is not planar."""


class CycleTooShortError(CrownError):
    """Cycle layout needs at least three boxes."""


class InvalidInstanceError(CrownError):
    """An instance violates its structural preconditions (a triangulation
    that is not a framed plane triangulation, a word cloud with k < 2)."""


class FormatError(CrownError):
    """An input document does not match its JSON schema."""


class HierInfeasibleError(CrownError):
    """Hierarchical solve failed; ``stage`` says where, ``witness`` why.

    Witnesses by stage: ``embedding`` an ``EmbeddingViolation`` (kind,
    vertex, detail); ``assign_y`` ``[box, top_a, top_b]``, a box forced
    to two tops; ``solve_x`` the constraint descriptors around the first
    negative cycle its search closes, in walk order, each
    ``("edge", child, parent)`` or ``("order", left, right)``.
    """

    def __init__(self, stage, witness):
        self.stage = stage
        self.witness = witness
        super().__init__(f"hierarchical layout infeasible at stage {stage!r}")


class TriangulationInfeasibleError(CrownError):
    """Staircase realization failed; ``stage`` says where, ``witness`` why.

    Witnesses by stage: ``stuck`` the sorted ids of the boxes never
    placed; ``not-rectangle`` the ``(x, y)`` corners of the placed
    region's concavities; ``outer-too-small`` the frame boxes too short
    to wrap the inner rectangle.
    """

    def __init__(self, stage, witness):
        self.stage = stage
        self.witness = witness
        super().__init__(f"triangulation not realizable: {stage}")
