"""Exception types shared across the package.

Contract misuse (wrong argument shapes, invalid matchings, malformed cuts)
raises plain ValueError/TypeError.  An integer argument is read by one rule,
``exact._as_index``, which README's Arguments section states.  Domain-state
failures -- a graph that is not GHZ, a colour that cannot be scaled, a
theorem hypothesis that does not hold -- raise GhzGraphError subclasses so
callers (and the CLI) can tell the two apart.
"""


class GhzGraphError(Exception):
    """Base class for domain-level failures."""


class NotGhzError(GhzGraphError):
    """The graph is not (g-)GHZ, so the requested quantity is undefined."""


class UnscalableColourError(GhzGraphError):
    """A colour with zero monochromatic weight cannot be scaled to GHZ.

    Either the colour sits on a perfect matching of non-zero weight, or its
    monochromatic colouring is feasible (its matchings cancel to 0).
    """


class BogdanovHypothesisError(GhzGraphError):
    """Fewer than three monochromatic perfect matchings of distinct colours."""


class IrreducibleError(GhzGraphError):
    """No vertex cut of size at most three exists: the graph is 4-connected."""


class WrongCaseError(GhzGraphError):
    """The easy/hard reduction constructor was called on the other case."""


class ConnectivityBoundError(GhzGraphError):
    """No weighting of the skeleton is a GHZ graph of the asked dimension.

    The paper proves the Krenn-Gu conjecture for vertex connectivity at most
    2: such a GHZ graph on more than four vertices has dimension at most 2.
    A weighting's support is a spanning subgraph of its skeleton, so its
    connectivity is at most the skeleton's.  ``code`` names the theorem.
    """

    code = "KRENN_GU_CONNECTIVITY_2"


class InvariantViolation(GhzGraphError):
    """An internal identity that must hold by theorem failed: a library bug."""


class DocumentError(GhzGraphError):
    """A graph document failed validation.

    Carries a stable machine-readable ``code`` and the JSON ``path`` of the
    offending value (e.g. ``edges[2].w[1]``).
    """

    def __init__(self, code: str, path: str, message: str):
        super().__init__(f"{code} at {path}: {message}")
        self.code = code
        self.path = path
