"""Exception hierarchy for sepcert."""


class SepcertError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(SepcertError, ValueError):
    """Malformed graph, family or complex input."""


class MetricError(SepcertError, ValueError):
    """Metric does not match the graph (missing or non-positive lengths)."""


class CutsetError(SepcertError, ValueError):
    """Cutset arguments that violate an operation's preconditions."""


class GroupError(SepcertError, RuntimeError):
    """Group queries about points outside the group's domain."""


class SearchError(SepcertError, ValueError):
    """Invalid search task configuration."""


class GluingError(SepcertError, ValueError):
    """Ill-formed gluing structures or weight assignments."""


class CertifyError(SepcertError, ValueError):
    """Certification preconditions violated (wrong graph shape, bad family)."""


class ComplexError(SepcertError, ValueError):
    """Ill-formed polygonal complexes or unsupported local structure."""
