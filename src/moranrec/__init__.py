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
    generator_theta_det,
    generator_theta_diff,
    simulate_backward,
)
from .errors import (
    ConfigError,
    EmptyBlockError,
    GroundMismatchError,
    InvalidInitialError,
    MoranRecError,
    NegativeWeightError,
    NotComparableError,
    NotOrderedPartitionError,
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
    LdeTrajectory,
    LdeTransform,
    SamplingTable,
    check_generator_duality,
    diffusion_left_eigenvectors,
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
    deterministic_step,
    generator_lambda,
    integrate_deterministic,
    rate_lambda,
    simulate_forward,
)
from .markov import GeneratorMatrix, enumerate_population_states
from .measures import (
    Measure,
    PopulationState,
    SiteSpace,
    add_delta,
    decode_type,
    encode_type,
    marginalize,
    measure_from_counts,
    measure_from_csv,
    measure_to_csv,
    sub_delta,
)
from .operators import (
    DiffusionRates,
    RecombinationDistribution,
    dump_recombination_file,
    lde_operator,
    load_recombination_file,
    recombinator,
    recombinator_bar,
    sampling,
    sampling_bar,
)
from .partitions import (
    EMPTY,
    Partition,
    canonicalize,
    coarsenings,
    coarsest,
    enumerate_partitions,
    finest,
    format_partition,
    is_ordered,
    join,
    meet,
    mobius,
    ordered_partitions_le2,
    parse_partition,
    refinements,
    refines,
    restrict,
)
