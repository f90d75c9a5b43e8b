"""Event binning with synthesized weak-derivative gradients.

Exact forward binning of warped events into frames, with a selectable
backward-pass derivative rule: the pointwise kernel derivative, the
synthesized derivative of the reconstruction-convolved kernel, or
heuristic surrogates. Includes contrast-maximization motion estimation
and a gradient-bias measurement harness.
"""

from .binning import (
    FBP,
    Frame,
    FrameGrid,
    GradMode,
    Naive,
    STE,
    Sigmoid,
    WeightedPoints,
    bin_forward,
    bin_forward_1d,
    bin_jvp,
    bin_jvp_1d,
    bin_vjp,
    bin_vjp_1d,
)
from .kernels import (
    BinningKernel,
    ReconKernel,
    SynthesizedKernel,
    eval_binning_kernel,
    eval_recon_kernel,
    synthesize_kappa,
)
from .objectives import NBParams, ScoreKind, adjoint, score, score_loglik, score_variance
from .warp import (
    Event,
    EventPacket,
    MotionParams,
    RefTimePolicy,
    WarpResult,
    reference_time,
    warp,
    warp_rotational,
    warp_translational,
)
from .estimator import (
    LbfgsOptions,
    LineSearch,
    ObjectiveConfig,
    OptTrace,
    lbfgs_maximize,
    objective_grad,
    objective_value,
    rms_error,
)
from .analysis import BiasReport, bias_grid, degree_of_precision, fd_gradient
from .events_io import (
    EventColumns,
    SyntheticScene,
    packet_from_scene,
    packetize,
    read_events_txt,
    synth_columns,
    synth_events,
    write_events_txt,
)

__version__ = "0.1.0"
