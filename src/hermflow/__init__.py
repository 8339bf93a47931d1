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
    ReferenceEnergies,
    band_average_errors,
    band_sums,
    build_convergence_report,
    linear_fit,
    q_sequence,
    reference_energies,
    window_sum,
)
from . import autodiff  # noqa: F401 - benchmarks/tracing.py binds autodiff.Var.backward
from .eigensolver import Spectrum, eigh, eigh_tridiagonal
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
    lipswish_jet,
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
    kinetic_matrix,
    overlap_matrix,
    potential_from_descriptor,
    potential_matrix,
)
from .hermite import BasisSpec, eval_hermite_derivatives, eval_hermite_functions
from .quadrature import QuadratureRule, gauss_hermite_rule, integrate_lifted
from .trainer import (
    AdamState,
    TrainingConfig,
    TrainingTrace,
    adam_step,
    finite_diff_gradient,
    gradient,
    make_trace_loss,
    trace_loss,
    train,
)

__version__ = "0.1.0"
