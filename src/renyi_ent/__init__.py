"""alpha-z Renyi relative entropies of entanglement: evaluation, optimizer
certification, closed-form state families, and additivity experiments."""

from .linalg import (
    DensityMatrix,
    EigenDecomposition,
    HermitianOperator,
    Partition,
    density,
    eig_hermitian,
    load_density_json,
    load_operator_json,
    matrix_power,
    partial_trace,
    partial_transpose,
    permute_factors,
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
    q_alpha_z,
)
from .certificates import (
    CertificateReport,
    OverlapResult,
    XiEvaluation,
    certify_optimizer,
    chi,
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
    lambda_sq_closed_form,
    parse_family,
    renyi_entropy,
)
from .minimizers import (
    SimplexProblem,
    SimplexRun,
    SimplexSolution,
    SolverOptions,
    conditional_entropy_mc,
    minimize_conditional_mc,
    minimize_incoherent,
    minimize_mc,
    minimize_simplex,
)

__version__ = "0.1.0"
