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


class MissingBoxError(CrownError):
    """A graph vertex has no placed box."""

    def __init__(self, box_id):
        self.box_id = box_id
        super().__init__(f"no box placed for vertex {box_id!r}")


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


class TooFewBoxesError(CrownError):
    """Extremal placement needs at least two boxes."""


class InvalidInstanceError(CrownError):
    """Generator preconditions violated."""


class FormatError(CrownError):
    """An input document does not match its JSON schema."""


class YConflictError(CrownError):
    """A box receives two distinct y-positions during propagation."""

    def __init__(self, box_id, value_a, value_b):
        self.box_id = box_id
        self.values = (value_a, value_b)
        super().__init__(
            f"box {box_id!r} assigned conflicting tops {value_a} and {value_b}"
        )


class XInfeasibleError(CrownError):
    """The horizontal difference-constraint system has no solution.

    ``witness`` lists the constraints of one negative cycle.
    """

    def __init__(self, witness):
        self.witness = list(witness)
        super().__init__(
            "no horizontal placement satisfies the contact constraints; "
            f"negative cycle of {len(self.witness)} constraints"
        )


class HierInfeasibleError(CrownError):
    """Hierarchical solve failed; ``stage`` says where, ``witness`` why."""

    def __init__(self, stage, witness):
        self.stage = stage
        self.witness = witness
        super().__init__(f"hierarchical layout infeasible at stage {stage!r}")


class TriangulationInfeasibleError(CrownError):
    """Staircase realization failed; ``stage`` is one of
    ``stuck`` | ``not-rectangle`` | ``outer-too-small``."""

    def __init__(self, stage, witness=None):
        self.stage = stage
        self.witness = witness
        super().__init__(f"triangulation not realizable: {stage}")
