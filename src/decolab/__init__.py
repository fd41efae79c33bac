"""decolab: density-matrix circuit simulation under depolarizing noise.

Simulates layered mixed-state circuits with a per-qubit depolarization round
between layers and quantifies, exactly at desk scale, how computations above
the noise threshold ``eta > 1 - 1/k`` collapse within logarithmic depth.
"""

from .analysis import (
    BoundSeries,
    DistanceReport,
    ThresholdInfo,
    analytic_bound,
    check_noise_action,
    distance_report,
    f_series,
    make_probes,
    min_worthless_depth,
    pairwise_profiles,
    practically_worthless,
    theta_and_threshold,
    worthless,
)
from .channels import (
    GATES,
    QuantumChannel,
    channel_from_unitary,
    channel_validate,
    depolarize_all,
)
from .circuit import (
    Circuit,
    CircuitError,
    CircuitLayer,
    CircuitParseError,
    PlacedGate,
    Trajectory,
    parse_circuit,
    parse_circuit_file,
    random_circuit,
    run_noisy,
    serialize_circuit,
)
from .config import ResourceLimitError, max_qubits
from .linalg import (
    DensityMatrix,
    limit_blas_threads,
    partial_trace,
    trace_distance,
)

__version__ = "0.1.0"

__all__ = [
    "BoundSeries",
    "Circuit",
    "CircuitError",
    "CircuitLayer",
    "CircuitParseError",
    "DensityMatrix",
    "DistanceReport",
    "GATES",
    "PlacedGate",
    "QuantumChannel",
    "ResourceLimitError",
    "ThresholdInfo",
    "Trajectory",
    "analytic_bound",
    "channel_from_unitary",
    "channel_validate",
    "check_noise_action",
    "depolarize_all",
    "distance_report",
    "f_series",
    "limit_blas_threads",
    "make_probes",
    "max_qubits",
    "min_worthless_depth",
    "pairwise_profiles",
    "parse_circuit",
    "parse_circuit_file",
    "partial_trace",
    "practically_worthless",
    "random_circuit",
    "run_noisy",
    "serialize_circuit",
    "theta_and_threshold",
    "trace_distance",
    "worthless",
]
