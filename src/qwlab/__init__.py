"""qwlab: a desk-scale verification lab for Macdonald / q-Whittaker
eigenrelations, Whittaker integral identities, and their q -> 1 limits.

Exact rational arithmetic carries every polynomial identity (the q-integral
operator eigenrelation is checked to exact zero residuals); mpmath carries
the analytic side at configurable precision.
"""

from .qcore import (
    DomainError,
    QwlabError,
    ZetaSeries,
    qbinomial_ratio_series,
    qpoch_finite,
    qpoch_infinite,
    set_precision,
    zeta_series_mul,
)
from .symfunc import (
    SymmetricPolynomial,
    dominance_leq,
    eval_symmetric,
    macdonald_gram_schmidt,
    macdonald_triangular_eigen,
    partitions_of,
    qwhittaker_branch_eval,
)
from .noumi import (
    apply_noumi,
    macdonald_d1_check,
    noumi_coeff,
    noumi_eigenvalue_series,
    verify_noumi,
)
from .gamma import GammaPoleError, gamma_c
from .quadrature import (
    GAUSS_LEGENDRE,
    QuadratureConfig,
    QuadratureError,
    integrate_1d,
)
from .whittaker import (
    pair_profile,
    sklyanin_m,
    stade_check,
    whittaker_eval,
)
from .baxter import (
    TestFunction,
    baxter_eigen_check,
    contour_apply,
    gamma_identity_check,
    kappa_parity,
    lemma1_check,
    residue_apply,
)
from .limits import (
    ScalingPoint,
    convergence_sweep,
    eq_exp_limit_check,
    scaled_qwhittaker,
    scaling_map,
    term_limit_checks,
)
from .report import VerificationReport

__version__ = "0.1.0"
