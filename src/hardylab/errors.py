"""Semantic exception hierarchy shared by all modules."""


class HardyLabError(Exception):
    """Base class for all package errors."""


class ParseError(HardyLabError, ValueError):
    """Malformed expression; carries the 0-based offset of the offending token."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainValidationError(HardyLabError, ValueError):
    """Argument outside its documented domain."""


class NonIntegrableError(HardyLabError, ArithmeticError):
    """exp(-V) does not appear to be integrable; carries the search diagnostic."""


class DepthExhaustedError(HardyLabError, ArithmeticError):
    """Adaptive quadrature hit max_depth; carries the worst offending panel."""

    def __init__(self, message, panel):
        super().__init__(f"{message}; worst panel {panel}")
        self.panel = panel


class BracketError(HardyLabError, ArithmeticError):
    """A bracketing search (the Luxemburg bisection) failed."""


class EnergyGuardError(HardyLabError, ZeroDivisionError):
    """Rayleigh-type ratio requested with vanishing energy denominator."""
