"""Electromagnetic propagation substrate.

Everything needed to simulate the indoor radio environment the PRESS array
manipulates: 2-D floor-plan geometry, antenna patterns, wall materials, the
parametric multipath signal model of §2, an image-method ray tracer,
channel-frequency-response synthesis, statistical fading models, and
receiver noise.
"""

from .antennas import (
    Antenna,
    IsotropicAntenna,
    LogPeriodicAntenna,
    OmniAntenna,
    ParabolicAntenna,
)
from .channel import (
    Channel,
    ChannelObservation,
    coherence_time_s,
    observe_cfr,
    snr_db_from_cfr,
    subcarrier_frequencies,
)
from .fading import TapDelayProfile, jakes_doppler_paths, rayleigh_paths, rician_paths
from .geometry import (
    Obstacle,
    Point,
    Segment,
    Wall,
    distance,
    mirror_point,
    points_on_grid,
    rectangle_walls,
    segment_intersection,
)
from .materials import MATERIALS, Material, get_material, register_material
from .mobility import MovingScatterer, TimeVaryingScene, walking_person
from .noise import add_noise, awgn, noise_power_per_subcarrier_w
from .paths import (
    PathBatch,
    SignalPath,
    path_arrays,
    paths_to_cfr,
    paths_to_cfr_batch,
    paths_to_cir,
    total_path_power,
)
from .raytracer import (
    RayTracer,
    carrier_phase,
    free_space_amplitude,
    two_hop_gain,
)
from .scene import Scatterer, Scene, blocker_between, shoebox_scene
from .trace_cache import TraceCache, global_trace_cache

__all__ = [
    "Antenna",
    "IsotropicAntenna",
    "OmniAntenna",
    "ParabolicAntenna",
    "LogPeriodicAntenna",
    "Channel",
    "ChannelObservation",
    "coherence_time_s",
    "observe_cfr",
    "snr_db_from_cfr",
    "subcarrier_frequencies",
    "TapDelayProfile",
    "rayleigh_paths",
    "rician_paths",
    "jakes_doppler_paths",
    "Point",
    "Segment",
    "Wall",
    "Obstacle",
    "distance",
    "mirror_point",
    "segment_intersection",
    "points_on_grid",
    "rectangle_walls",
    "Material",
    "MATERIALS",
    "get_material",
    "register_material",
    "awgn",
    "add_noise",
    "noise_power_per_subcarrier_w",
    "SignalPath",
    "PathBatch",
    "path_arrays",
    "paths_to_cfr",
    "paths_to_cfr_batch",
    "paths_to_cir",
    "total_path_power",
    "TraceCache",
    "global_trace_cache",
    "RayTracer",
    "free_space_amplitude",
    "carrier_phase",
    "two_hop_gain",
    "Scene",
    "Scatterer",
    "shoebox_scene",
    "blocker_between",
    "MovingScatterer",
    "TimeVaryingScene",
    "walking_person",
]
