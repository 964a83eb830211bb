"""Exact lumping of mass-action reaction networks.

Find species equivalences by partition refinement (forward: block sums
evolve autonomously; backward: equally initialized equivalent species
stay equal forever), build the quotient networks they induce, and verify
symbolically and numerically that the reductions preserve the ODE
semantics.
"""

from .core import (
    CRN,
    CRNError,
    IntegrationError,
    Multiset,
    NotBisimulationError,
    NotLumpableError,
    ParseError,
    Partition,
    PartitionError,
    Reaction,
    Species,
    make_crn,
    quotient_species,
    validate,
)
from .bisim import (
    BisimMode,
    RefinementTrace,
    find_counterexample,
    is_bisimulation,
    refine,
)
from .reduce import ReducedCRN, backward_reduce, forward_reduce
from .odes import (
    Polynomial,
    VectorField,
    accretion_depletion,
    format_polynomial,
    format_vector_field,
    is_exactly_lumpable,
    is_ordinarily_lumpable,
    lumped_field_backward,
    lumped_field_forward,
    vector_field,
)
from .sim import (
    InitialCondition,
    Trajectory,
    VerificationReport,
    integrate,
    trajectory_to_csv,
    verify_backward,
    verify_forward,
)
from .io import (
    import_bngl_net,
    parse_crn,
    parse_initial_conditions,
    parse_partition,
    partition_from_initial_conditions,
    serialize_crn,
)
from .models import (
    MultisiteSpec,
    multisite,
    multisite_block_count,
    random_crn,
    running_example,
    two_state,
)

__version__ = "0.1.0"
