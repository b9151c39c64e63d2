"""Exception types shared across the package."""


class IwalabError(Exception):
    """Base class for all package errors."""


class DegenerateField(IwalabError):
    """The two asymptotic flux phases coincide: b+ - b- is a nonzero whole
    number of turns, decided exactly on the turns (the same phases under two
    names), or the interface projections of a constant field (b+ = b-) were
    requested."""


class IrrationalFlux(IwalabError):
    """A Bloch-matrix construction was requested for a flux that is not an
    exact rational multiple of 2*pi."""


class IrrationalSlope(IwalabError):
    """An interface-translation construction was requested for a slope
    without a rational direction vector."""


class EmptyGap(IwalabError):
    """The requested energy interval does not separate spectrum on both
    sides, so no gap unitary exists."""


class GapClosed(IwalabError):
    """The chemical potential touches a Bloch band (or a band degeneracy
    crosses it), so the Fermi projection is not gapped."""


class ChernMismatch(IwalabError):
    """The plaquette sum of a momentum Chern number rounds to another
    integer than the TKNN Diophantine equation gives: the k-grid is too
    coarse to resolve the Berry curvature."""


class NotProjection(IwalabError):
    """An operator expected to be an orthogonal projection is not one to
    the required tolerance."""


class NotInterfaceLocalized(IwalabError):
    """A slab trace was requested for an operator whose diagonal has not
    decayed at the normal cutoff of the trace region."""


class SlabExceedsWindow(IwalabError):
    """The requested slab length does not fit in the operator window with
    the required margins."""


class BudgetExceeded(IwalabError):
    """A site window or Bloch grid would exceed its fixed size budget; it is
    refused before anything is allocated."""


class EmptyInterior(IwalabError):
    """The requested margin leaves no interior sites in the window."""


class NoCommonGap(IwalabError):
    """The two bulk band structures share no open spectral gap."""

    def __init__(self, message, gaps_plus=None, gaps_minus=None):
        super().__init__(message)
        self.gaps_plus = gaps_plus
        self.gaps_minus = gaps_minus


class ConfigError(IwalabError):
    """A run configuration failed validation; message carries the field
    diagnostic."""
