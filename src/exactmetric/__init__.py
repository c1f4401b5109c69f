"""Exact-arithmetic finite metric geometry.

Finite (pseudo)metric spaces over rationals, Katetov one-point extensions
and towers, isometry groups and their actions, free-space norms with two
independent exact solvers, quotients of groups by left-invariant
pseudometrics, and covering certificates.
"""

from .actions import (
    GroupAction,
    Isometry,
    action_from_closure,
    enumerate_isometries,
    moving_gap,
    orbit,
    orbit_diameter,
    translation_gap,
)
from .errors import (
    BudgetExceededError,
    DomainError,
    ExactMetricError,
    InternalCheckError,
    StructuralError,
)
from .freespace import (
    LipschitzWitness,
    Molecule,
    aell_norm,
    aell_norm_dual,
    aell_norm_primal,
    affine_extend,
    extension_certificate,
    fixed_point,
    moving_lower_bound,
    norm_distance,
    rebase,
)
from .groups import (
    FiniteGroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    symmetric_group,
)
from .katetov import (
    KatetovFunction,
    StarFragment,
    TowerPolicy,
    act_on_katetov,
    hat_extension,
    is_katetov,
    point_function,
    prop_k_gap,
    star_fragment,
    sup_distance,
    tower,
)
from .metric import (
    FiniteMetricSpace,
    PointedSpace,
    set_distance,
    validate,
)
from .quotients import (
    InvariantPseudometric,
    kernel_subgroup,
    min_fvf_cover,
    moving_certificate,
    orbit_isomorphism,
    pullback_pseudometric,
    quotient_space,
)

__version__ = "0.1.0"
