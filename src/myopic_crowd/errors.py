"""Exception hierarchy shared by all modules."""


class MyopicCrowdError(Exception):
    """Base class for every error raised by this package."""


# -- world ----------------------------------------------------------------

class DimensionMismatch(MyopicCrowdError):
    """Likelihood table shape disagrees with the class set or input space."""


class RowNotStochastic(MyopicCrowdError):
    """A likelihood row has a negative entry or does not sum to 1."""


class UnknownClass(MyopicCrowdError):
    """A class label or index is not part of the class set."""


# -- classifier -----------------------------------------------------------

class ReplayExhausted(MyopicCrowdError):
    """A replay stream has no posterior vector for the requested round."""


class ScopeMismatch(MyopicCrowdError):
    """A posterior or posterior stream does not match the agent scope."""


# -- scores ---------------------------------------------------------------

class ClassOutOfScope(MyopicCrowdError):
    """A score was requested for a class the agent cannot identify."""


class TrueClassInScope(MyopicCrowdError):
    """Confusion score requested although the true class is identifiable;
    the caller wanted the discriminative score."""


# -- network --------------------------------------------------------------

class RetriesExhausted(MyopicCrowdError):
    """Random graph generation failed to produce a connected graph."""


class DisconnectedGraph(MyopicCrowdError):
    """The operation requires a connected graph."""


class ParseError(MyopicCrowdError):
    """A graph or stream file could not be parsed."""


class AsymmetricInput(MyopicCrowdError):
    """An adjacency matrix was not symmetric."""


# -- sim / cli ------------------------------------------------------------

class IdentifiabilityViolated(MyopicCrowdError):
    """Global identifiability was enforced but does not hold."""


class InsufficientSamples(MyopicCrowdError):
    """Too few usable rounds in the fitting window to estimate a rate."""


class ConfigError(MyopicCrowdError):
    """The experiment configuration is malformed or inconsistent."""
