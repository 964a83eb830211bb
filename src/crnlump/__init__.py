"""Exact lumping of mass-action reaction networks.

Find species equivalences by partition refinement (forward: block sums
evolve autonomously; backward: equally initialized equivalent species
stay equal forever), build the quotient networks they induce, and verify
symbolically and numerically that the reductions preserve the ODE
semantics.

Refinement, reduction, the checks, the exact vector field and the text
formats are integer and rational work and import neither numpy nor
scipy.  The numerical names of :mod:`crnlump.sim` (``Trajectory``,
``VerificationReport``, ``integrate``, ``trajectory_to_csv``,
``verify_forward`` and ``verify_backward``) are resolved by the module
``__getattr__`` below, so ``import crnlump`` loads numpy and scipy only
when one of them is first read.  Even then scipy contributes one
compiled extension, ``scipy.sparse._sparsetools``, loaded from its file
without the ``scipy.sparse`` package; the Runge-Kutta integrator is the
package's own (:mod:`crnlump._rk45`), so ``scipy.integrate`` is never
imported.
"""

from .core import (
    CRN,
    CRNError,
    InitialCondition,
    IntegrationError,
    NotBisimulationError,
    NotLumpableError,
    ParseError,
    Partition,
    PartitionError,
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
    format_polynomial,
    format_vector_field,
    is_exactly_lumpable,
    is_ordinarily_lumpable,
    lumped_field_backward,
    lumped_field_forward,
    vector_field,
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

_SIM_NAMES = frozenset({
    "Trajectory",
    "VerificationReport",
    "integrate",
    "trajectory_to_csv",
    "verify_backward",
    "verify_forward",
})


def __getattr__(name: str):
    # Each read looks the name up in crnlump.sim and stores nothing here,
    # so a name patched there is what the next read returns.
    if name in _SIM_NAMES:
        from . import sim

        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SIM_NAMES})
