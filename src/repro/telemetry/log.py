"""Tiny leveled logger for CLI/runner status output.

Status and progress lines go through here — to **stderr**, prefixed
``[repro]`` — so stdout stays reserved for primary results and
machine-readable output (``--json`` payloads, report tables).  Level
comes from ``REPRO_LOG`` (``debug`` | ``info`` | ``quiet``; default
``info``) or a process-local :func:`set_level` override, re-read on
every call so tests can monkeypatch the environment freely.
"""

from __future__ import annotations

import os
import sys

__all__ = ["info", "set_level", "warn"]

_LEVELS = {"debug": 10, "info": 20, "warn": 30, "quiet": 100}

_OVERRIDE: str | None = None


def _threshold() -> int:
    name = _OVERRIDE or os.environ.get("REPRO_LOG", "info").strip().lower()
    return _LEVELS.get(name, 20)


def set_level(name: str | None) -> str | None:
    """Override ``REPRO_LOG`` in-process; returns the previous override."""
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = name
    return previous


def _emit(level: int, msg: str) -> None:
    if level >= _threshold():
        print(f"[repro] {msg}", file=sys.stderr, flush=True)


def info(msg: str) -> None:
    _emit(20, msg)


def warn(msg: str) -> None:
    _emit(30, msg)
