"""Discrete-event simulation kernel: engine, RNG streams, tracing, units."""

from .engine import Event, SimulationError, Simulator
from .process import Process
from .rng import RandomStreams
from .trace import TraceRecord, TraceRecorder
from .units import (
    MIN_POWER_DBM,
    MSEC,
    USEC,
    db_to_linear,
    dbm_to_mw,
    linear_to_db,
    msec,
    mw_to_dbm,
    thermal_noise_dbm,
    usec,
)

__all__ = [
    "Event",
    "SimulationError",
    "Simulator",
    "Process",
    "RandomStreams",
    "TraceRecord",
    "TraceRecorder",
    "MIN_POWER_DBM",
    "MSEC",
    "USEC",
    "db_to_linear",
    "dbm_to_mw",
    "linear_to_db",
    "msec",
    "mw_to_dbm",
    "thermal_noise_dbm",
    "usec",
]
