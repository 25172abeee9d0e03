"""``engine="native"``: the branch-and-bound hot core, compiled to C.

This package holds the default search engine of the repository's
two-engine lattice (``native`` / ``reference``): a self-contained C99
implementation of the DFS and windowed splitter that
:mod:`repro.sched.search` and :mod:`repro.sched.splitting` spell out
recursively, compiled at first use from the adjacent ``kernel.c`` with
the system C compiler and bound through ``ctypes`` — no new Python
dependency.  The Python side (:mod:`repro.sched.core`) lowers each block
to the flat ``_Flat`` tables and runs the search preamble; the kernel
runs the search.

* :mod:`repro.native.build` — compiler discovery, the sha256-keyed
  on-disk build cache, atomic installs.
* :mod:`repro.native.bindings` — flat ``int64``/CSR marshalling of the
  ``_Flat`` tables, library loading with corruption recovery, and the
  ``native_dfs``/``native_split`` entry points the scheduler dispatch
  calls.

Results are bit-for-bit identical to the reference engine (everything
except wall time); without a C compiler the engine degrades to
``reference`` with a one-line stderr notice (see
:func:`repro.sched.core.resolve_engine`).
"""

from .bindings import (
    load_kernel,
    native_available,
    native_dfs,
    native_split,
    unavailable_reason,
)
from .build import NativeBuildError, build_kernel, compiler_info

__all__ = [
    "NativeBuildError",
    "build_kernel",
    "compiler_info",
    "load_kernel",
    "native_available",
    "native_dfs",
    "native_split",
    "unavailable_reason",
]
