"""alpha-z Renyi relative entropies of entanglement: evaluation, optimizer
certification, closed-form state families, and additivity experiments.

Exports that nothing else in the package reads, each kept for one reason: ``tensor_product`` (the benchmark's
workloads), ``d_alpha_z`` and ``minimize_incoherent`` (the README's library tour), ``d_min`` and ``d_max`` (the
limits the paper names), ``save_operator_json`` (writes the CLI's matrix files) and ``partial_transpose`` (the
partial-transpose upper bound on Lambda^2)."""

from .linalg import (
    DensityMatrix,
    EigenDecomposition,
    HermitianOperator,
    density,
    eig_hermitian,
    load_density_json,
    load_operator_json,
    partial_transpose,
    pure_density,
    random_density,
    save_operator_json,
    tensor_product,
    tensor_product_merged,
)
from .divergences import (
    AlphaZ,
    d_alpha_z,
    d_max,
    d_min,
    d_umegaki,
)
from .certificates import (
    CertificateReport,
    OverlapResult,
    XiEvaluation,
    certify_optimizer,
    in_support_set,
    marginal_condition_mc,
    max_product_overlap,
    xi,
)
from .catalog import (
    AntisymPair,
    BellDiagonal,
    Dicke,
    GHZ,
    Isotropic,
    MCBD,
    MaximallyCorrelated,
    PureBipartite,
    Werner,
    ansatz_optimizer,
    beta_dual,
    build,
    closed_form_value,
    family_label,
    is_separable_regime,
    parse_family,
    renyi_entropy,
)
from .minimizers import (
    SimplexProblem,
    SimplexSolution,
    SolverOptions,
    minimize_incoherent,
    minimize_mc,
    minimize_simplex,
)

__version__ = "0.1.0"
