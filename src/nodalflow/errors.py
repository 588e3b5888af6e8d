"""Exception types shared across the package."""

from __future__ import annotations


class NodalFlowError(Exception):
    """Base class for all package errors."""


class NotConnected(NodalFlowError):
    """Operation requires a connected graph."""


class EigFailure(NodalFlowError):
    """The dense symmetric eigensolver did not converge."""


class ZeroVertex(NodalFlowError):
    """An eigenvector entry is zero (below the relative threshold) where a
    sign is required."""

    def __init__(self, vertices):
        self.vertices = tuple(int(v) for v in vertices)
        super().__init__(f"eigenvector vanishes at vertices {self.vertices}")


class AssumptionViolated(NodalFlowError):
    """A working assumption (simple eigenvalue or nowhere-zero eigenvector)
    does not hold for the selected eigenpair."""

    def __init__(self, which: str, detail: str = ""):
        self.which = which
        msg = f"assumption violated: {which}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DegenerateEigenvalue(NodalFlowError):
    """A simple eigenvalue was required but the value is degenerate."""


class EmptyInterior(NodalFlowError):
    """The interior vertex set of a Dirichlet problem is empty."""


class NotAComponent(NodalFlowError):
    """The supplied vertex set is not one of the D-connected components."""


class InvalidFamilyParams(NodalFlowError):
    """Graph family parameters are out of range."""


class ConnectivityExhausted(NodalFlowError):
    """No connected sample was found within the allowed number of attempts."""


class FlowConsistencyError(NodalFlowError):
    """A flow certificate failed for a simple lambda_k: the edge flow's
    (converged + crossings = k, and its ends) or the vertex flow's
    (converged = Dirichlet multiplicity, converged + crossings = k + ghosts)."""
