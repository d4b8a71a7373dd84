"""Moran model with single-crossover recombination and its partitioning dual.

The package builds exact generators for the forward population process and
the backward block-partitioning process, verifies that the two intertwine
through the without-replacement sampling measures, integrates the closed
ODE system for expected sampling measures, and turns those into expected
linkage disequilibria of any order.  Event-driven simulators cover both
directions of time.
"""

__version__ = "0.1.0"

from .backward import (
    BackwardModel,
    PartitionTrajectory,
    generator_theta,
    simulate_backward,
)
from .errors import (
    ConfigError,
    EmptyBlockError,
    InvalidInitialError,
    MoranRecError,
    NegativeWeightError,
    NotSubsetError,
    OutputCheckError,
    OverlapError,
    SampleTooLargeError,
    ShapeError,
    SizeCapError,
    ZeroMeasureError,
)
from .expectations import (
    ExpectationTrajectory,
    LdeTransform,
    check_generator_duality,
    expected_sampling,
    fixation_2site,
    lde_conjugation_3site,
    lde_trajectory,
    lde_transform,
    lde_transform_diffusion,
    sampling_table,
    three_site_order,
)
from .forward import (
    ForwardModel,
    TrajectoryRecord,
    generator_lambda,
    integrate_deterministic,
    simulate_forward,
)
from .markov import GeneratorMatrix, enumerate_population_states
from .measures import (
    Measure,
    PopulationState,
    SiteSpace,
    decode_type,
    encode_type,
    marginalize,
    measure_from_counts,
    measure_from_csv,
    measure_to_csv,
)
from .operators import (
    DiffusionRates,
    RecombinationDistribution,
    lde_operator,
    recombinator_bar,
    sampling,
    sampling_bar,
)
from .partitions import (
    EMPTY,
    Partition,
    coarsest,
    enumerate_partitions,
    finest,
    format_partition,
    parse_partition,
)
