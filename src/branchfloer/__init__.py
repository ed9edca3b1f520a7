"""Branched knot Floer invariants of arborescent knots via lattice homology.

The pipeline: a knot description (torus / pretzel / Montesinos words, mirrors,
connected sums) is turned into a negative-definite plumbing tree for the double
branched cover, the tree into a graded root with involution, the root into a
free F_2[U] complex with an involution, and from there into the branched
invariants: the two towers delta-bar / delta-under, the branched homology, its
connected and reduced-connected versions, and the torsion exponent omega.
"""

__version__ = "0.1.0"

from .complexes import (  # noqa: E402
    ConsistencyError,
    GradedUModule,
    RankBoundExceeded,
    UComplex,
    UMap,
    homology,
    lift_involution,
    local_equivalences,
    model_complex,
)
from .connected import monotone_subroot  # noqa: E402
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
from .plumbing import DefinitenessError, PlumbingTree, star  # noqa: E402
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
