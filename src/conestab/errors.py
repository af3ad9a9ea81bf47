"""Exception hierarchy for conestab.

Every failure mode of the library maps to one of these classes so that the
CLI can translate them into stable exit codes (2 for validation problems,
3 for budget/tolerance problems).
"""


class ConestabError(Exception):
    """Base class for all conestab errors."""


# --- geometry -------------------------------------------------------------

class DegenerateCone(ConestabError):
    """Ray set does not span a pointed, full-dimensional cone."""


class NotFullDimensional(ConestabError):
    """Cone has empty interior, so its dual would not be pointed."""


class UnboundedSlice(ConestabError):
    """A slicing covector is not strictly positive on the cone."""


class Unbounded(ConestabError):
    """Operation requires a bounded polytope."""


class ZeroVolume(ConestabError):
    """Polytope is degenerate (lower-dimensional)."""


# --- linear programming ---------------------------------------------------

class LPError(ConestabError):
    pass


class Infeasible(LPError):
    """Feasible region is empty.  Carries a Farkas certificate: multipliers
    ``farkas`` (one per <=-normalized constraint row, all >= 0) combining
    the constraints into 0 <= negative."""

    def __init__(self, message="infeasible", farkas=None):
        super().__init__(message)
        self.farkas = farkas


class LPUnbounded(LPError):
    """Objective is unbounded on the feasible region.  Carries a recession
    ``ray`` in the original variable space along which the objective
    improves forever."""

    def __init__(self, message="unbounded", ray=None):
        super().__init__(message)
        self.ray = ray


class DenominatorVanishes(LPError):
    """Fractional program denominator is not positive on the region."""


# --- enumeration / iteration budgets --------------------------------------

class BudgetExceeded(ConestabError):
    """Lattice enumeration exceeded the configured point budget."""


class ToleranceNotReached(ConestabError):
    """Iterative solver stopped at its cap before closing the gap.
    Carries the best bracket found so far in ``result``."""

    def __init__(self, message="tolerance not reached", result=None):
        super().__init__(message)
        self.result = result


# --- singularity / filtration validation ----------------------------------

class NotQGorenstein(ConestabError):
    """The linear system for the discrepancy covector is inconsistent."""


class NotKlt(ConestabError):
    """Discrepancy covector fails strict positivity on the cone."""


class NotPrimary(ConestabError):
    """Filtration transform vanishes somewhere on the weight cone, so the
    level ideals are not primary for the vertex."""


class NonpositiveScale(ConestabError):
    pass


class EmptyInput(ConestabError):
    pass


class AmbientMismatch(ConestabError):
    """Operands live over different singularities."""


class OutsideWeightCone(ConestabError):
    """Lattice point is not a weight of the coordinate ring."""


class FutakiNonvanishing(ConestabError):
    """Operation requires the Futaki character to vanish on the cotorus."""


class IdentityViolated(ConestabError):
    """Internal error: an exact identity a computation relies on failed."""


# --- CLI ingestion ---------------------------------------------------------

class ParseError(ConestabError):
    """Malformed document, option or environment value; ``where`` anchors it."""

    def __init__(self, message, where=""):
        super().__init__(f"{where}: {message}" if where else message)
        self.where = where


class UnknownFiltration(ConestabError):
    pass
