"""Instruction trace model: records, symbol table, storage.

This package is the contract between the trace *producers* (the simulated
browser engine in :mod:`repro.browser`, driven through the synthetic machine
in :mod:`repro.machine`) and the trace *consumer* (the backward-slicing
profiler in :mod:`repro.profiler`).
"""

from .records import InstrKind, TraceRecord, TraceMetadata, new_record
from .store import TraceStore, load_any_trace
from .symbols import SymbolTable

__all__ = [
    "InstrKind",
    "TraceRecord",
    "TraceMetadata",
    "new_record",
    "TraceStore",
    "SymbolTable",
    "load_any_trace",
]
