"""Trajectory sensitivity toolkit for a simulated 3-joint finger.

Estimates how rollout trajectories respond to controller-parameter
perturbations: builds finite-difference training pairs, suppresses temporal
and spatial measurement noise, fits per-timestep GP maps, and uses them for
zero-shot gain planning.
"""

from .align import DelayEstimate, NoiseClass, classify_noise, delay, estimate_delay
from .controllers import PolicySpec
from .perturb import DirectionBasis, basis_directions, sample_gaussian, sample_uniform
from .planner import PlanningProblem, plan_and_verify, solve_kp
from .sensitivity import (
    JacobianStack,
    MetricsRow,
    SampleSet,
    SensitivityModel,
    build_jacobian_stack,
    build_sample_sets,
    build_samples,
    cosine_alignment,
    evaluate,
    fit_gp,
    fit_sensitivity_model,
    gp_score,
    reconstruct_linear,
)
from .sim import (
    DynamicsMode,
    JointState,
    NoiseConfig,
    Trajectory,
    inject_spatial_noise,
    inject_temporal_noise,
    rollout,
    rollout_batch,
)
from .voxel import check_lemma_bound, voxel_center, voxelize_trajectory

__version__ = "0.1.0"
