"""Adaptive sliding-mode control laws with a desk-scale simulation harness."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    BAND_RATIO,
    OvershootBound,
    CertificateBounds,
    adaptation_shape,
    delta_surface,
    overshoot_bound,
    sat,
    sgn,
    ultimate_band,
)
from .controllers import (  # noqa: F401
    BoundaryLayerSMC,
    ClassicalSMC,
    DeltaAdaptiveSMC,
    PlestanAdaptiveSMC,
    UtkinAdaptiveSMC,
)
from .plants import (  # noqa: F401
    LinearPlant,
    MultiSineSignal,
    RegulationPlant,
    SineReference,
    SquareSignal,
    TableSignal,
    TrackingPlant,
    verify_signal_bound,
)
from .sim import (  # noqa: F401
    IntegrationSettings,
    RunMetrics,
    Scenario,
    TrajectoryLog,
    compute_metrics,
    lyapunov_trace,
    run_scenario,
    verify_ultimate_bound,
    verify_band_excursion,
    write_csv,
)
