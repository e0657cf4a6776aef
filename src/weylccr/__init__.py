"""Exact symbolic computation in the Weyl (CCR) algebra.

All coordinates and phase angles live in the field of rational functions of
tau (standing for 2*pi), so commutation phases, state evaluations and
automorphism actions are exact at the angle level.  On top of the finitely
supported *-algebra the package provides the translation-invariant state
families in closed form, finite GNS-style matrix truncations as a brute-force
oracle, and seeded verification suites for every identity it claims.
"""

from .algebra import (
    AutomorphismSpec,
    Element,
    FreeDynamics,
    Monomial,
    MomentumTranslation,
    SpaceTranslation,
    TimeReversal,
    ZERO_THRESHOLD,
    apply_automorphism,
    automorphism_action,
    ergodic_mean,
    ergodic_mean_lattice,
    ergodic_mean_zak,
    monomial_adjoint,
    monomial_product,
    numeric_box_average,
    symplectic,
    tracial_inner_product,
    weyl_generator,
    weyl_generator_parts,
)
from .characters import (
    BohrCharacter,
    ContinuousCharacter,
    PadicCharacter,
    ProductCharacter,
    character_eval,
    padic_fraction,
)
from .errors import (
    DimensionMismatch,
    ExpressionError,
    FamilyMismatch,
    FrameMismatch,
    ImmutableObject,
    InvalidObject,
    InvalidParameter,
    InvalidProbeSet,
    NotACharacter,
    NotAScalar,
    NotAState,
    NotDecomposable,
    NotRational,
    OutOfSubalgebra,
    PhasePrecisionError,
    SingularFrame,
    Unsupported,
    WeylError,
    WindowTooSmall,
    ZeroDenominator,
)
from .expressions import parse_element
from .gns import (
    FourierWindow,
    bloch_vector_state,
    op_F,
    op_S,
    plane_wave_vector_state,
    rep_rho_kappa,
    weyl_relation_residual,
)
from .lattice import (
    CellDecomposition,
    Frame,
    decompose,
    dual_frame,
    enumerate_trs_fixed_points,
    pairing,
    vector,
)
from .scalars import ExactScalar, PhaseAngle, TAU, scalar
from .states import (
    Bloch,
    BohrState,
    Fock,
    Mixture,
    PlaneWave,
    StateModel,
    Tracial,
    Zak,
    bloch_monomial_value,
    covariance_check,
    gram_psd_check,
    invariance_check,
    multiplicativity_check,
    path_sample,
    time_reversal_classify,
    weak_star_distance,
)

__version__ = "0.1.0"
