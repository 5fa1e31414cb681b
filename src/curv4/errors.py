"""Exception types shared across the package."""


class Curv4Error(Exception):
    """Base class for all package errors."""


class ChartDomainError(Curv4Error):
    """A point lies outside the declared chart domain (with margin)."""


class MetricConstructionError(Curv4Error):
    """A metric field failed validation (bad parameters, lost positivity)."""


class SpecParseError(Curv4Error):
    """A metric or surface spec, or a CLI number, is malformed or invalid."""


class NonMinimalSurfaceError(Curv4Error):
    """An operation requiring a minimal surface got a non-minimal one."""


class SectionError(Curv4Error):
    """A normal section violates a precondition (vanishing, not holomorphic)."""


class RefinementError(Curv4Error):
    """Basis refinement exhausted without the reported index stabilizing."""


class OutputError(Curv4Error):
    """A report or CSV output path cannot be written."""
