"""rmpslab: projected ensembles of random matrix product states.

Build random MPS from staircase or glued shallow circuits, sample projective
measurements, and compute frame potentials three independent ways: Monte
Carlo over sampled projected ensembles, exact replica transfer-matrix
contraction over symmetric-group permutations, and closed-form scaling-limit
predictions of the confinement theory.
"""

__version__ = "0.1.0"

from .errors import PreconditionError, ShapeMismatchError, SizeLimitError
from .estimator import (
    EnsembleConfig,
    MomentEstimate,
    overlap_histogram,
    sample_moments,
)
from .mps import (
    BornSampler,
    Circuit,
    MpsState,
    build_glued,
    build_staircase,
    oracle_frame_potentials,
    stream,
)
from .permutations import ReplicaShape
from .replica import ChainValue, ReplicaChainSpec, contract, frame_potential_chain
from .theory import (
    haar_frame_potential,
    leading_order_log,
    setup1_pdf,
    setup1_ratio,
    setup2_generalized_ratio,
    setup2_pdf,
    setup2_ratio,
)
from .weingarten import HAAR, EnsembleKind, gaussian

__all__ = [
    "HAAR",
    "BornSampler",
    "ChainValue",
    "Circuit",
    "EnsembleConfig",
    "EnsembleKind",
    "MomentEstimate",
    "MpsState",
    "PreconditionError",
    "ReplicaChainSpec",
    "ReplicaShape",
    "ShapeMismatchError",
    "SizeLimitError",
    "build_glued",
    "build_staircase",
    "contract",
    "frame_potential_chain",
    "gaussian",
    "haar_frame_potential",
    "leading_order_log",
    "oracle_frame_potentials",
    "overlap_histogram",
    "sample_moments",
    "setup1_pdf",
    "setup1_ratio",
    "setup2_generalized_ratio",
    "setup2_pdf",
    "setup2_ratio",
    "stream",
]
