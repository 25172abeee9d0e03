"""``engine="native"``: the branch-and-bound hot core, compiled to C.

This package holds the third search engine of the repository's engine
lattice (``fast`` / ``native`` / ``reference``): a
self-contained C99 port of the flattened DFS and windowed splitter in
:mod:`repro.sched.core`, compiled at first use from the adjacent
``kernel.c`` with the system C compiler and bound through ``ctypes`` —
no new Python dependency.

* :mod:`repro.native.build` — compiler discovery, the sha256-keyed
  on-disk build cache, atomic installs.
* :mod:`repro.native.bindings` — flat ``int64``/CSR marshalling of the
  ``_Flat`` tables, library loading with corruption recovery, and the
  ``native_dfs``/``native_split`` entry points the scheduler dispatch
  calls.

Results are bit-for-bit identical to every other engine (everything
except wall time); without a C compiler the engine degrades to ``fast``
with a one-line stderr notice (see
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
