"""Calibrated timing, power, and aging models plus the run-time policy.

The cycle and power models are least-squares fits of measured operating
points of the FPGA implementation (Spartan-6 XC6SLX45); the aging
schedule interpolates measured end-of-life frequencies. The policy picks
the largest bit-width that still meets a throughput target at the
current (aged) clock.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .mac import BITWIDTHS


class CalibrationError(ValueError):
    """A model fit violated its residual bound or had degenerate input."""


# Measured operating points of the FPGA design, one row per bit-width:
# (bitwidth, throughput-preserving frequency MHz, power W, latency s).
# Latencies are at the pre-aging base clock, the 10-bit row's frequency.
FPGA_TABLE = (
    (10, 85.7, 0.292, 0.139),
    (9, 43.8, 0.177, 0.071),
    (8, 22.9, 0.120, 0.037),
    (7, 12.4, 0.092, 0.020),
    (6, 7.1, 0.077, 0.012),
)

# Aged maximum clock of the FPGA emulation, (years, MHz).
FPGA_AGING_ANCHORS = ((0.0, 85.7), (10.0, 75.7))

_RESIDUAL_BOUND = 0.05


@dataclass(frozen=True)
class CycleModel:
    """Cycles per frame at bit-width b: c_sc * 2**b + c_ovh.

    c_sc scales the SC multiplier schedule (proportional to 2**b);
    c_ovh absorbs frame-constant overhead such as buffering and control.
    """

    c_sc: float
    c_ovh: float

    def __post_init__(self):
        if not 0 < self.c_sc < math.inf:
            raise ValueError(f"c_sc must be positive and finite, got {self.c_sc}")
        if not 0 <= self.c_ovh < math.inf:
            raise ValueError(f"c_ovh must be >= 0 and finite, got {self.c_ovh}")

    def cycles_per_frame(self, b: int) -> float:
        if b not in BITWIDTHS:  # the one check of a platform bit-width
            raise ValueError(f"bitwidth {b} not in {BITWIDTHS}")
        return self.c_sc * (1 << b) + self.c_ovh


@dataclass(frozen=True)
class PowerModel:
    """Affine power draw: P(f) = p_static + p_dyn * f, f in MHz."""

    p_static: float
    p_dyn: float

    def __post_init__(self):
        if not 0 <= self.p_static < math.inf:
            raise ValueError(f"p_static must be >= 0 and finite, got {self.p_static}")
        if not 0 < self.p_dyn < math.inf:
            raise ValueError(f"p_dyn must be positive and finite, got {self.p_dyn}")

    def power(self, freq_mhz: float) -> float:
        return self.p_static + self.p_dyn * freq_mhz


@dataclass(frozen=True)
class AgingSchedule:
    """Aged maximum frequency as piecewise-linear (years, MHz) anchors."""

    anchors: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.anchors) < 2:
            raise ValueError("need at least two aging anchors")
        if not all(math.isfinite(v) for anchor in self.anchors for v in anchor):
            raise ValueError(f"aging anchors must be finite, got {self.anchors}")
        years = [a[0] for a in self.anchors]
        freqs = [a[1] for a in self.anchors]
        if any(b <= a for a, b in zip(years, years[1:])):
            raise ValueError("anchor years must be strictly increasing")
        if any(b > a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("anchor frequencies must be non-increasing")
        if freqs[-1] <= 0:  # the lowest, so every anchor is positive
            raise ValueError(f"anchor frequencies must be positive, got {freqs[-1]}")
        slopes = [(f1 - f0) / (y1 - y0)
                  for (y0, f0), (y1, f1) in zip(self.anchors, self.anchors[1:])]
        if not all(map(math.isfinite, slopes)):  # else np.interp's clock overflows
            raise ValueError(f"anchor slopes must be finite, got {slopes}")

    @property
    def span(self) -> tuple[float, float]:
        return self.anchors[0][0], self.anchors[-1][0]


@dataclass(frozen=True)
class OperatingPoint:
    """A chosen (bit-width, frequency) pair and its metrics; None where no bit-width is feasible."""

    bitwidth: Optional[int]
    frequency_mhz: float
    throughput_fps: Optional[float]
    power_w: float
    latency_s: Optional[float]


@dataclass(frozen=True)
class PlatformConfig:
    """Calibrated models plus the platform constants they are used with."""

    cycle_model: CycleModel
    power_model: PowerModel
    schedule: AgingSchedule
    base_freq_mhz: float

    def __post_init__(self):
        if not 0 < self.base_freq_mhz < math.inf:
            raise ValueError(f"base_freq_mhz must be positive and finite, got {self.base_freq_mhz}")
        # finite coefficients can still overflow, and every report would read inf or nan
        for b in BITWIDTHS:
            if not math.isfinite(cycles := self.cycle_model.cycles_per_frame(b)):
                raise ValueError(f"cycle_model overflows: {cycles} cycles per frame at {b} bits")
        if not math.isfinite(watts := self.power_model.power(self.base_freq_mhz)):
            raise ValueError(f"power_model overflows: {watts} W at the "
                             f"{self.base_freq_mhz:g} MHz base clock")


def _base_freq(rows) -> float:
    """Base clock of measured rows: the highest-bitwidth row's frequency."""
    return max(rows, key=lambda r: r[0])[1]


def _check_residuals(what: str, labels, residuals) -> None:
    # written so that a NaN residual fails the bound
    bad = [(label, res) for label, res in zip(labels, residuals) if not res <= _RESIDUAL_BOUND]
    if bad:
        detail = ", ".join(f"{label}: {res:.1%}" for label, res in bad)
        raise CalibrationError(f"{what} fit residuals exceed 5%: {detail}")


def _fit_line(what: str, x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowing or rank-deficient fit is refused
            slope, intercept = np.polyfit(np.asarray(x, float), np.asarray(y, float), 1)
    except Warning as e:
        raise CalibrationError(f"{what} fit failed: {e}") from None
    return float(slope), float(intercept)


def calibrate_cycles(rows: Sequence[tuple[int, float, float]]) -> CycleModel:
    """Fit the cycle model to measured (bitwidth, freq MHz, latency s) rows.

    Latencies are interpreted at the base clock (the highest-bitwidth
    row's frequency), matching how the design's operating points are
    characterized: per-frame cycles = latency * base_freq * 1e6. Every
    row must be reproduced within 5% or the fit is rejected.
    """
    if len(rows) < 2:
        raise CalibrationError("need at least two calibration rows")
    bits = [int(r[0]) for r in rows]
    bad = [b for b in bits if b not in BITWIDTHS]
    if bad:
        raise CalibrationError(f"bit-widths {bad} not in {BITWIDTHS}")
    if len(set(bits)) != len(bits):
        raise CalibrationError("calibration rows must have distinct bit-widths")
    base_freq = _base_freq(rows)
    if not 0 < base_freq < math.inf:
        raise CalibrationError("base frequency must be positive and finite")
    x = [float(1 << b) for b in bits]
    cycles = [r[2] * base_freq * 1e6 for r in rows]
    if not all(0 < c < math.inf for c in cycles):
        raise CalibrationError("latencies must be positive and finite")

    c_sc, c_ovh = _fit_line("cycle", x, cycles)
    if c_sc <= 0:
        raise CalibrationError(f"fit produced non-increasing cycle model (c_sc={c_sc:.4g})")
    # two exact rows can land imperceptibly below zero
    if c_ovh < -1e-6 * max(cycles):
        raise CalibrationError(f"fit produced negative overhead (c_ovh={c_ovh:.4g})")
    model = CycleModel(c_sc, max(c_ovh, 0.0))
    _check_residuals("cycle", [f"b={b}" for b in bits], cycle_residuals(model, rows))
    return model


def cycle_residuals(model: CycleModel, rows: Sequence[tuple[int, float, float]]) -> list[float]:
    """Relative residual per calibration row, in row order."""
    base_freq = _base_freq(rows)
    out = []
    for b, _, lat in rows:
        c = lat * base_freq * 1e6
        out.append(abs(model.cycles_per_frame(int(b)) - c) / c)
    return out


def calibrate_power(rows: Sequence[tuple[float, float]]) -> PowerModel:
    """Fit the affine power model to measured (freq MHz, watts) rows."""
    if len(rows) < 2:
        raise CalibrationError("need at least two power rows")
    freqs = [float(r[0]) for r in rows]
    watts = [float(r[1]) for r in rows]
    if not all(0 < v < math.inf for v in freqs + watts):
        raise CalibrationError("power rows must be positive and finite")
    if len(set(freqs)) < 2:
        raise CalibrationError("power rows must cover at least two distinct frequencies")

    p_dyn, p_static = _fit_line("power", freqs, watts)
    if p_dyn <= 0:
        raise CalibrationError(f"fit produced non-increasing power model (p_dyn={p_dyn:.4g})")
    if p_static < -1e-9:
        raise CalibrationError(f"fit produced negative static power ({p_static:.4g})")
    model = PowerModel(max(p_static, 0.0), p_dyn)
    _check_residuals("power", [f"f={f:g}MHz" for f in freqs], power_residuals(model, rows))
    return model


def power_residuals(model: PowerModel, rows: Sequence[tuple[float, float]]) -> list[float]:
    return [abs(model.power(f) - w) / w for f, w in rows]


def _split_rows(rows):
    """(bitwidth, freq, latency) cycle rows and (freq, watts) power rows."""
    return [(b, f, lat) for b, f, _, lat in rows], [(f, w) for _, f, w, _ in rows]


def calibrate_platform(rows: Sequence[tuple[int, float, float, float]]) -> PlatformConfig:
    """Fit both models to measured (bitwidth, freq MHz, watts, latency s) rows;
    the aging schedule is the FPGA anchors and the base clock is the
    highest-bitwidth row's frequency."""
    cycle_rows, power_rows = _split_rows(rows)
    return PlatformConfig(
        cycle_model=calibrate_cycles(cycle_rows),
        power_model=calibrate_power(power_rows),
        schedule=AgingSchedule(FPGA_AGING_ANCHORS),
        base_freq_mhz=_base_freq(rows),
    )


def calibration_residuals(cfg: PlatformConfig, rows) -> list[tuple[float, float]]:
    """(cycle, power) relative residual of cfg's models per measured row."""
    cycle_rows, power_rows = _split_rows(rows)
    return list(zip(cycle_residuals(cfg.cycle_model, cycle_rows),
                    power_residuals(cfg.power_model, power_rows)))


def frequency_at_year(s: AgingSchedule, t: float) -> float:
    """Aged clock at year t by piecewise-linear interpolation; no extrapolation."""
    lo, hi = s.span
    if not lo <= t <= hi:
        raise ValueError(f"year {t} outside schedule span [{lo}, {hi}]")
    years = [a[0] for a in s.anchors]
    freqs = [a[1] for a in s.anchors]
    return float(np.interp(t, years, freqs))


def throughput(cm: CycleModel, b: int, freq_mhz: float) -> float:
    """Frames per second at bit-width b and the given clock."""
    if freq_mhz <= 0:
        raise ValueError("frequency must be positive")
    return freq_mhz * 1e6 / cm.cycles_per_frame(b)


def min_bitwidth_for_throughput(cm: CycleModel, freq_mhz: float, target: float) -> Optional[int]:
    """Largest bit-width meeting the target at this clock, or None."""
    if target <= 0:
        raise ValueError("target throughput must be positive")
    for b in BITWIDTHS:
        if throughput(cm, b, freq_mhz) >= target:
            return b
    return None


def min_frequency_for_throughput(cm: CycleModel, b: int, target: float) -> float:
    """Lowest clock (MHz) sustaining the target at bit-width b."""
    if target < 0:
        raise ValueError("target throughput must be >= 0")
    return target * cm.cycles_per_frame(b) / 1e6


def select_config(
    cm: CycleModel,
    pm: PowerModel,
    s: AgingSchedule,
    t: float,
    target: float,
) -> OperatingPoint:
    """Pick the operating point at year t: aged clock, most accurate
    feasible bit-width or None, implied throughput/power/latency."""
    freq = frequency_at_year(s, t)
    b = min_bitwidth_for_throughput(cm, freq, target)
    if b is None:
        return OperatingPoint(None, freq, None, pm.power(freq), None)
    tp = throughput(cm, b, freq)
    return OperatingPoint(b, freq, tp, pm.power(freq), 1.0 / tp)


@functools.cache  # every part of a PlatformConfig is frozen, so one serves the process
def default_platform() -> PlatformConfig:
    """The platform calibrated from the bundled FPGA measurement table."""
    return calibrate_platform(FPGA_TABLE)


def default_cycle_model() -> CycleModel:
    return default_platform().cycle_model


def default_power_model() -> PowerModel:
    return default_platform().power_model


def default_aging_schedule() -> AgingSchedule:
    return default_platform().schedule


def save_platform(cfg: PlatformConfig, path) -> None:
    """Write cfg as a platform config file; non-finite values are refused."""
    doc = {
        "cycle_model": {
            "c_sc_cycles": cfg.cycle_model.c_sc,
            "c_ovh_cycles": cfg.cycle_model.c_ovh,
        },
        "power_model": {
            "p_static_w": cfg.power_model.p_static,
            "p_dyn_w_per_mhz": cfg.power_model.p_dyn,
        },
        "base_freq_mhz": cfg.base_freq_mhz,
        "aging_anchors_years_mhz": [list(a) for a in cfg.schedule.anchors],
    }
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


_JSON_KINDS = {dict: "an object", list: "an array"}


def _typed(value, kind: type, key: str):
    """value, which must be a JSON object (dict) or array (list); indexing or
    unpacking any other value would fail with a message that names no key."""
    if type(value) is not kind:
        raise ValueError(f"{key} must be {_JSON_KINDS[kind]}, got {json.dumps(value)[:40]}")
    return value


def _number(value, key: str) -> float:
    """A JSON number as a float; float() would also take true, false and "9.5e4"."""
    if type(value) not in (int, float):
        raise ValueError(f"{key} must be a number, got {json.dumps(value)[:40]}")
    return float(value)


def _anchor(value, key: str) -> tuple[float, float]:
    """One (years, MHz) aging anchor, a JSON array of two numbers."""
    if type(value) is not list or len(value) != 2:
        raise ValueError(f"{key} entries must be [years, MHz] pairs, "
                         f"got {json.dumps(value)[:40]}")
    return _number(value[0], key), _number(value[1], key)


def load_platform(path=None) -> PlatformConfig:
    """Load a platform config file, or the bundled FPGA defaults.

    Unknown keys are ignored, so files written by older versions still load.
    """
    if path is None:
        return default_platform()
    try:
        doc = _typed(json.loads(Path(path).read_text(encoding="utf-8")), dict, "top level")
        cm = _typed(doc["cycle_model"], dict, "cycle_model")
        pm = _typed(doc["power_model"], dict, "power_model")
        anchors = "aging_anchors_years_mhz"
        return PlatformConfig(
            cycle_model=CycleModel(*(_number(cm[k], k) for k in ("c_sc_cycles", "c_ovh_cycles"))),
            power_model=PowerModel(*(_number(pm[k], k) for k in ("p_static_w", "p_dyn_w_per_mhz"))),
            schedule=AgingSchedule(
                tuple(_anchor(a, anchors) for a in _typed(doc[anchors], list, anchors))),
            base_freq_mhz=_number(doc["base_freq_mhz"], "base_freq_mhz"),
        )
    except KeyError as e:
        raise ValueError(f"malformed platform config {path}: missing key {e}") from None
    except UnicodeDecodeError as e:
        raise ValueError(f"malformed platform config {path}: not UTF-8 text "
                         f"({e.reason} at byte {e.start})") from None
    except RecursionError:
        raise ValueError(f"malformed platform config {path}: nested too deeply") from None
    except (TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"malformed platform config {path}: {e}") from None
