"""Exception hierarchy for game construction, conversion and solving."""


class GameError(Exception):
    """Base class for all library errors."""


class InvalidParameter(GameError):
    """An argument outside the range its function documents."""


# -- game construction / validation -------------------------------------------

class SchemaError(GameError):
    """A game or converted-game document does not follow the JSON schema."""


class DuplicateNodeId(GameError):
    pass


class ProbabilityNotNormalized(GameError):
    pass


class MissingVisibilityEntry(GameError):
    pass


class CyclicStructure(GameError):
    pass


class UnknownPlayer(GameError):
    pass


class ActionMismatchWithinInfoset(GameError):
    pass


# -- transforms / conversion ---------------------------------------------------

class NotATeamGame(GameError):
    pass


class NotPublicTurnTaking(GameError):
    pass


class ImperfectRecallInput(GameError):
    pass


class ExclusionDataMissing(InvalidParameter):
    pass


class IllegalActionInPlan(GameError):
    pass


class IllegalPrescription(GameError):
    pass


class OriginMismatch(GameError):
    """A converted game does not derive from the given source game."""


# -- generators ----------------------------------------------------------------

class SpecOutOfBounds(InvalidParameter):
    pass


# -- solvers -------------------------------------------------------------------

class EmptyMatrix(GameError):
    pass


class GameTooLarge(GameError):
    pass


class InvalidIterationCount(InvalidParameter):
    pass


class IncompleteProfile(GameError):
    pass


class SolverFailure(GameError):
    """An LP or double-oracle result that fails its certification."""


# -- census --------------------------------------------------------------------

class NonDivisibleLevelProfile(GameError):
    pass
