"""Simulation and certification engine for prepare-and-measure DI-QRNG protocols.

The package splits along the problem's own seams:

* :mod:`diqrng.qcore`      exact 1-3 qubit states, gates, bases, measurement;
* :mod:`diqrng.games`      the five nonlocal/self-testing games, quantum and
  classical strategies, exact scores, brute force, equivalence checks;
* :mod:`diqrng.protocols`  black-box device pairs, each its response table
  Pr[b = 1] over (coin, x, setting) built from a strategy's outcome tensor;
  the two protocol runners with their Check/Rand/False binning and abort
  logic; guessing-game bounds;
* :mod:`diqrng.stream`     the chunked round draw, the one sampling kernel and
  the packed bit stream, shared by games, protocols, analysis and the CLI;
* :mod:`diqrng.analysis`   estimators, entropy, and a small test battery;
* :mod:`diqrng.cli`        the ``diqrng`` command-line front end.

The error classes of :mod:`diqrng.errors`, each a ``DiqrngError``, are
exported here too.
"""

__version__ = "0.1.0"

from .analysis import (
    BatteryResult,
    EntropyReport,
    Estimate,
    entropy_report,
    estimate_conditional,
    hoeffding_radius,
    randomness_battery,
    statistic_A,
    wilson_interval,
)
from .errors import (  # every class of the module
    ArityMismatch, BadDimension, BadDistribution, BadInput, BadTarget, DeviceArityMismatch, DiqrngError,
    EmptyCondition, InsufficientRounds, MissingCell, NonNormalizable, TooFewBits, UnknownKind,
)
from .games import (
    ClassicalStrategy,
    EquivalencePair,
    EquivalenceReport,
    G2Score,
    GameId,
    GameScore,
    QuantumStrategy,
    RoundColumns,
    RoundIO,
    RoundSampler,
    ScoreKind,
    best_classical,
    enumerate_deterministic,
    equivalence_check,
    exact_score,
    g2_deterministic_frontier,
    input_space,
    outcome_tensor,
    paper_strategy,
    pt3_odd_extension_score,
    sample_round,
    win_mask,
    winning_predicate,
)
from .protocols import (
    BinStore,
    CertificationVerdict,
    DevicePair,
    GuessingBoundsReport,
    ProtocolConfig,
    adversarial_devices,
    classical_pair_from_strategy,
    guessing_game_bound_check,
    honest_devices,
    run_protocol,
)
from .qcore import (
    Gate1Q,
    MeasurementResult,
    PureState,
    QubitBasis,
    apply_gate,
    collapse,
    make_state,
    measure,
    outcome_distribution,
    overlap,
)
