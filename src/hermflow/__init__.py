"""hermflow - variational spectral solver with a flow-warped Hermite basis.

Solves 1D Schrodinger eigenproblems by projecting the Hamiltonian onto a
truncated set of Hermite functions, or onto the same set composed with a
trainable smooth bijection (an invertible residual network inside an
affine-tanh sandwich).  The warp is trained by Adam to minimize the trace of
the projected Hamiltonian, a variational upper bound on the sum of the
lowest eigenvalues; convergence diagnostics compare both discretizations as
the basis grows.
"""

from .analysis import (
    ConvergenceReport,
    band_average_errors,
    build_convergence_report,
)
from . import autodiff  # noqa: F401 - benchmarks/tracing.py binds autodiff.Var.backward
from .eigensolver import Spectrum, eigh
from .flow import (
    FlowParams,
    Jet2,
    ResidualBlock,
    evaluate_augmented_basis,
    flow_forward,
    flow_inverse,
    flow_jet,
    init_flow_params,
    lipswish,
    load_checkpoint,
    normalize_block,
    save_checkpoint,
    spectral_norm,
)
from .galerkin import (
    HamiltonianMatrix,
    Potential,
    anharmonic_potential,
    assemble_hamiltonian,
    harmonic_potential,
    potential_from_descriptor,
)
from .hermite import BasisSpec, eval_hermite_derivatives, eval_hermite_functions
from .quadrature import QuadratureRule, gauss_hermite_rule
from .trainer import (
    AdamState,
    TrainingConfig,
    TrainingTrace,
    adam_step,
    gradient,
    make_trace_loss,
    train,
)

__version__ = "0.1.0"
