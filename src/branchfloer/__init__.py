"""Branched knot Floer invariants of arborescent knots via lattice homology.

The pipeline: a knot description (torus / pretzel / Montesinos words, mirrors,
connected sums) is turned into a negative-definite plumbing tree for the double
branched cover, the tree into a graded root with involution, the root into a
free F_2[U] complex with an involution, and from there into the branched
invariants: the two towers delta-bar / delta-under, the branched homology, its
connected and reduced-connected versions, and the torsion exponent omega.
"""

__version__ = "0.1.0"

from .connected import GradedUModule, monotone_subroot  # noqa: E402
from .knots import (  # noqa: E402
    InvariantPackage,
    KnotSpec,
    KnotSpecError,
    Presentation,
    invariants,
    parse_spec,
    presentation,
    unparse,
)
from .plumbing import ConsistencyError, DefinitenessError, PlumbingTree, star  # noqa: E402
from .roots import GradedRoot, InstabilityError, build_root  # noqa: E402

__all__ = [
    "ConsistencyError",
    "DefinitenessError",
    "GradedRoot",
    "GradedUModule",
    "InstabilityError",
    "InvariantPackage",
    "KnotSpec",
    "KnotSpecError",
    "PlumbingTree",
    "Presentation",
    "RankBoundExceeded",
    "UComplex",
    "UMap",
    "build_root",
    "homology",
    "invariants",
    "lift_involution",
    "local_equivalences",
    "model_complex",
    "monotone_subroot",
    "parse_spec",
    "presentation",
    "star",
    "unparse",
]


def __getattr__(name):
    # every other public name is bound above: the rest are the chain layer's,
    # which only sums and --verify run, so it loads on first use
    if name in __all__:
        from . import complexes
        return getattr(complexes, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
