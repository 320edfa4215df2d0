"""Numerical laboratory for forced traveling waves of a Fisher-KPP equation
with a shifting, degenerate resource profile.

The moving-frame equation is phi'' + c phi' + phi (a(z) - phi) = 0 with
phi(-inf) = alpha and phi(+inf) = 0, where a(z) is a plateau-to-tail
resource profile.  Subpackages:

    environment   profiles, eigenvalues, decay shapes, regime classifier
    localsolve    backward shooting for local tail solutions
    frame         the discrete problem: operator, residual, Jacobian, solves
    wavesolver    damped Newton on frame's collocation system
    pdesim        semi-implicit time stepper and comparison tests
    oracles       closed-form sub/super-solutions with sign certificates
    analysis      decay fitting and inventory verdicts
    cli           command line front end
"""

from .environment import (
    Algebraic,
    AnsatzUnavailableError,
    EnvironmentProfile,
    ExpTail,
    IteratedLog,
    Power,
    ProfileItself,
    PureExp,
    QuadratureError,
    RegimeReport,
    Sigma1Int,
    SlowMaximal,
    TildeA,
    classify,
    generalized_eigenvalues,
    sigma1_valid_from,
)
from .wavesolver import (
    ContinuationResult,
    NewtonDivergenceError,
    NoPositiveWaveError,
    OrderingResult,
    SolverConfig,
    WaveSolution,
    continuation_in_c,
    continuum_residual,
    ordering_check,
    solve_wave,
    standard_starts,
    wave_family,
)
from .pdesim import (
    SimulationState,
    StepRejectedError,
    comparison_test,
    evolve,
    make_state,
    state_from_wave,
)
from .analysis import (
    DecayFit,
    FitRanking,
    FitWindowError,
    InventoryVerdict,
    fit_decay,
    inventory_verdict,
    tail_window,
)

__version__ = "0.1.0"
