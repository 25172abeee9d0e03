"""Shared argparse machinery for the ``repro`` command family.

Every subcommand (``repro compile|experiments|verify|bench|serve``)
historically declared its own
``--engine``/``--seed``/``--stats-json``/budget flags, and their names,
defaults and help strings drifted.  This module is the single source of
truth: :func:`common_flags` builds an ``add_help=False`` parent parser
carrying any subset of the canonical flags, which each tool passes to
``argparse.ArgumentParser(parents=[...])``.

The registry deliberately covers only flags whose *meaning* is shared
across tools.  ``repro compile``'s ``--verify MEM`` (which takes an
initial-memory mapping) is a different contract from the boolean
``--verify`` of the experiments/serve tools, so it stays tool-local.
"""

from __future__ import annotations

import argparse
from typing import Dict, Iterable, Optional, Tuple

from .resilience.budget import BudgetManager
from .sched.core import ENGINE_ALIASES, ENGINES
from .sched.search import DEFAULT_CURTAIL, SearchOptions

__all__ = ["common_flags", "COMMON_FLAGS", "search_options", "run_budget"]

#: flag name -> (argparse args, argparse kwargs).  One entry per shared
#: flag; tools opt into the subset they support.
COMMON_FLAGS: Dict[str, Tuple[tuple, dict]] = {
    "engine": (
        ("--engine",),
        dict(
            # Retired aliases stay accepted (existing command lines and
            # journals still run) but out of the help text.
            choices=ENGINES + tuple(ENGINE_ALIASES),
            metavar="{" + ",".join(ENGINES) + "}",
            default="native",
            help="search engine: the compiled C hot core (native, the "
            "default; falls back to reference when no C compiler is "
            "found) or the recursive reference — bit-for-bit identical "
            "results",
        ),
    ),
    "seed": (
        ("--seed",),
        dict(type=int, default=1990, help="master seed"),
    ),
    "curtail": (
        ("--curtail",),
        dict(
            type=int,
            default=DEFAULT_CURTAIL,
            metavar="LAMBDA",
            help=f"search curtail point lambda (default {DEFAULT_CURTAIL:,})",
        ),
    ),
    "stats-json": (
        ("--stats-json",),
        dict(
            metavar="PATH",
            default=None,
            help="write telemetry (counters, phase times) to PATH as JSON",
        ),
    ),
    "verify": (
        ("--verify",),
        dict(
            action="store_true",
            help="re-derive every published schedule through the "
            "independent certificate checker (repro.verify); any "
            "mismatch aborts the run",
        ),
    ),
    "optimality": (
        ("--optimality",),
        dict(
            action="store_true",
            help="run the ILP witness (repro.ilp) against every search "
            "result: assert omega-equality when both complete, record a "
            "certified optimality gap (LP dual bound) when curtailed",
        ),
    ),
    "block-timeout": (
        ("--block-timeout",),
        dict(
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-block wall-clock limit (SearchOptions.time_limit); "
            "a block over it publishes its windowed (section 5.3) schedule "
            "if that beats the list-schedule seed, else the seed, and is "
            "recorded degraded instead of stalling the run",
        ),
    ),
    "run-timeout": (
        ("--run-timeout",),
        dict(
            type=float,
            default=None,
            metavar="SECONDS",
            help="run-level wall-clock budget; it also caps each block's "
            "time limit, and blocks that start past the deadline publish "
            "their list-schedule seeds without searching",
        ),
    ),
    "run-omega-budget": (
        ("--run-omega-budget",),
        dict(
            type=int,
            default=None,
            metavar="CALLS",
            help="run-level Ω-call budget; once spent, remaining blocks "
            "publish their list-schedule seeds",
        ),
    ),
}


def common_flags(
    include: Iterable[str],
    overrides: Optional[Dict[str, dict]] = None,
) -> argparse.ArgumentParser:
    """A parent parser carrying the requested shared flags.

    ``overrides`` may refine per-tool *presentation* (help text, default)
    of a flag without renaming it — e.g. the experiments CLI explains
    what ``--verify`` aborts in population terms.
    """
    parent = argparse.ArgumentParser(add_help=False)
    for name in include:
        try:
            args, kwargs = COMMON_FLAGS[name]
        except KeyError:
            raise ValueError(f"unknown common flag {name!r}") from None
        kwargs = dict(kwargs)
        if overrides and name in overrides:
            kwargs.update(overrides[name])
        parent.add_argument(*args, **kwargs)
    return parent


def search_options(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> SearchOptions:
    """The :class:`SearchOptions` of ``--curtail``/``--engine``/``--block-timeout``.

    A value ``SearchOptions`` rejects is a usage error: ``parser.error``
    (exit 2, one line), never a traceback from deep inside a run.
    """
    try:
        return SearchOptions(
            curtail=args.curtail, engine=args.engine, time_limit=args.block_timeout
        )
    except ValueError as exc:
        parser.error(str(exc))


def run_budget(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> Optional[BudgetManager]:
    """The run-level :class:`BudgetManager` of ``--run-timeout``/
    ``--run-omega-budget`` (``None`` when neither is given); a rejected
    value is a usage error, as in :func:`search_options`.
    """
    if args.run_timeout is None and args.run_omega_budget is None:
        return None
    try:
        return BudgetManager(
            run_wall_clock=args.run_timeout, run_omega_cap=args.run_omega_budget
        )
    except ValueError as exc:
        parser.error(str(exc))
