"""Counter-based stochastic computing simulator with a run-time
accuracy-reconfigurable DCT/IDCT image pipeline and calibrated
timing/power/aging platform models."""

from .sc_core import (
    BitStream,
    CbscResult,
    LfsrConfig,
    UnsignedFixed,
    and_multiply,
    cbsc_multiply,
    lfsr_step,
    sng_conventional,
    sng_deterministic,
    stream_to_binary,
    unary_gen,
)
from .mac import (
    BITWIDTHS,
    AccuracySelect,
    MacResult,
    SignMagnitude,
    mac,
    restore_width,
    signed_product,
    truncate,
)
from .dct import (
    FrequencyMask,
    GrayImage,
    PipelineReport,
    dct1d_ref,
    idct1d_ref,
    process_image,
    process_widths,
    psnr,
)
from .platform_model import (
    AgingSchedule,
    CalibrationError,
    CycleModel,
    OperatingPoint,
    PowerModel,
    calibrate_cycles,
    calibrate_power,
    frequency_at_year,
    min_bitwidth_for_throughput,
    min_frequency_for_throughput,
    select_config,
    throughput,
)

__version__ = "0.1.0"
