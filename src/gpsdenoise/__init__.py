"""GPS position-series denoising: band filtering + incremental RBF networks."""

from .signal import (
    COMPONENTS,
    NoiseConfig,
    PositionSeries,
    SeriesFormatError,
    Sinusoid,
    TrajectoryConfig,
    add_noise,
    generate_trajectory,
    mse,
    read_series,
    write_series,
)
from .bandfilter import (
    BAND_NAMES,
    BandComponent,
    BandSpec,
    decompose,
    select_band,
)
from .rbf import (
    RbfNetwork,
    TrainConfig,
    TrainTrace,
    forward,
    solve_output_weights,
    train,
)
from .pipeline import (
    BenchmarkResult,
    MethodConfig,
    PlotData,
    build_grid,
    emit_plot_data,
    run_method,
    run_table,
    write_plot_data,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "COMPONENTS",
    "BAND_NAMES",
    "BandComponent",
    "BandSpec",
    "BenchmarkResult",
    "MethodConfig",
    "NoiseConfig",
    "PlotData",
    "PositionSeries",
    "RbfNetwork",
    "SeriesFormatError",
    "Sinusoid",
    "TrainConfig",
    "TrainTrace",
    "TrajectoryConfig",
    "add_noise",
    "build_grid",
    "decompose",
    "emit_plot_data",
    "forward",
    "generate_trajectory",
    "mse",
    "read_series",
    "run_method",
    "run_table",
    "select_band",
    "solve_output_weights",
    "train",
    "write_plot_data",
    "write_report",
    "write_series",
]
