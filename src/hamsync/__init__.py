"""Two-party synchronization of bit words under a bounded-mismatch promise.

Alice holds X, Bob holds Y, both n bits, and they are promised that X and Y
differ in at most floor(alpha*n) positions.  The package implements exact
protocols built on linear codes, hashing-based identification, probabilistic
one-round variants, and a harness that measures every protocol's exact bit
cost against entropy and log-volume references.
"""

from .bitword import (
    Bounds,
    Word,
    ball_volume,
    binary_entropy,
    hamming_distance,
    log2_big,
    lower_bound_bits,
    pack_fields,
    random_word_within,
    unpack_fields,
)
from .errors import (
    CapabilityError,
    ContractError,
    InvariantError,
    ProtocolExecutionError,
    RetryLimitError,
    TransportError,
)
from .gf2codes import LinearCode, hamming_7_4, random_linear_code
from .harness import ExperimentConfig, ReportRow, emit_report, run_experiment
from .hashing import multi_nba_protocol, nba_protocol
from .probproto import ProbParams, composite_prob_sync, one_round_prob_sync
from .syncdet import (
    SyncInstance,
    brute_sync,
    coloring_oracle_sync,
    listdec_sync,
    syndrome_sync,
)
from .transport import ProtocolOutcome, Transcript, run_protocol

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "CapabilityError",
    "ContractError",
    "ExperimentConfig",
    "InvariantError",
    "LinearCode",
    "ProbParams",
    "ProtocolExecutionError",
    "ProtocolOutcome",
    "ReportRow",
    "RetryLimitError",
    "SyncInstance",
    "Transcript",
    "TransportError",
    "Word",
    "ball_volume",
    "binary_entropy",
    "brute_sync",
    "coloring_oracle_sync",
    "composite_prob_sync",
    "emit_report",
    "hamming_7_4",
    "hamming_distance",
    "listdec_sync",
    "log2_big",
    "lower_bound_bits",
    "multi_nba_protocol",
    "nba_protocol",
    "one_round_prob_sync",
    "pack_fields",
    "random_linear_code",
    "random_word_within",
    "run_experiment",
    "run_protocol",
    "syndrome_sync",
    "unpack_fields",
    "__version__",
]
