"""One glibc allocator policy for every process that imports :mod:`repro`.

A GiPH search step frees 1-2 MB of NumPy temporaries (the edge half's two
``(9, E)`` arrays, ~418 KB each at 48 x 12).  Under glibc's dynamic
defaults that memory went back to the OS and was faulted in again by the
next step.  Explicit thresholds keep freed blocks under 4 MiB mapped and
still mmap (and return) larger ones, whatever was freed before import.
Median minor faults per op, ``benchmarks.e2e`` seed 0 (the daemon's own on
``serve_*``), before -> after: ``search_large`` 3 326 -> 0,
``train_episode`` 14 -> 14, ``eval_grid`` 3 -> 3, ``serve_event`` 26 -> 24,
``serve_evaluate`` 35 -> 34.
"""

import ctypes
import sys

_libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
if hasattr(_libc, "mallopt"):  # absent elsewhere: nothing is set
    _libc.mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD
