"""Decentralized multi-robot relative-pose estimation and formation-control toolkit.

Modules:
    geometry   pose algebra, quaternion distances, geodesic rotation error
    losses     uncertainty loss kernels (values and gradients)
    metrics    error categories, Youden filtering, AUC, Dice/IoU
    estimator  synthetic calibrated pose estimator, oracle, embedding header codec
    netproto   wire-frame codec and TDMA scheduler with adaptive backoff
    netsim     deterministic discrete-event broadcast-medium simulation
    bev        ego-centered occupancy grids and log-odds fusion
    control    uncertainty-gated PD formation controller, keyframe homing
    scenario   worlds, trajectories, dataset sampling, the experiment loop
    config     flat run configuration with every documented default
    cli        the ``covis`` command-line entry point
"""

from .config import RunConfig
from .estimator import NoiseProfile, Observation, PoseEstimate
from .geometry import Pose, UnitQuat, Vec3

__all__ = [
    "NoiseProfile",
    "Observation",
    "Pose",
    "PoseEstimate",
    "RunConfig",
    "UnitQuat",
    "Vec3",
]

__version__ = "0.1.0"
