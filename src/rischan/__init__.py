"""Deterministic clustered channel simulator for surface-assisted links.

Statistical mmWave and sub-6 GHz channel generation for links assisted by a
reconfigurable reflecting surface: geometry-aware cluster scattering,
close-in path loss with distance-dependent visibility, surface phase
control, achievable-rate evaluation, Monte Carlo runs, and coverage maps.
All randomness flows through hash-derived named substreams, so any
realization is reproducible in isolation and results never depend on
evaluation order or worker count.
"""

from ._version import __version__
from .arrays import (
    ArrayGeometry,
    ElementPattern,
    element_gain,
    steering_matrix,
    steering_vector,
)
from .control import (
    RateResult,
    RisPhaseConfig,
    achievable_rate,
    phases_cophase,
    phases_dominant,
    quantize_phases,
    random_phases,
)
from .engine import (
    CoverageArea,
    RunConfig,
    RunResult,
    coverage_run,
    load_config,
    run,
)
from .errors import ConfigError, GenerationError
from .geometry import (
    DirectionAngles,
    Plane,
    Point3,
    SurfaceOrientation,
    angles_from,
    distance,
    distance_2d,
)
from .mmwave import (
    ChannelRealization,
    compose_end_to_end,
    realize,
)
from .multiris import compose_multi, realize_multi
from .propagation import (
    SPEED_OF_LIGHT,
    Environment,
    EnvironmentKind,
    PathLossParams,
    ci_intercept_db,
    los_probability,
    path_loss,
)
from .scattering import (
    ClusterSet,
    Link,
    ScatteringParams,
    generate_clusters,
    share_clusters,
)
from .scene import RisPanel, Scene
from .simio import read_metadata, read_tensor, write_metadata, write_tensor, write_tensor_csv
from .streams import cell_seed, substream
from .sub6 import (
    ClusterPowerProfile,
    Sub6Params,
    fraunhofer_distance,
    gen_cluster_powers,
    gen_g_near,
    nearfield_element_capture,
    powers_from_delays,
    realize_sub6,
)
