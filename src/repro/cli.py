"""Command-line compiler: ``repro compile``.

Drives the whole Figure-2 back end from a shell::

    repro compile program.src                         # paper machine, optimal
    repro compile -e "b = 15; a = b * a;" --show all
    repro compile program.src --machine deep-memory --scheduler gross
    repro compile program.src --machine @mymachine.txt --registers 8
    repro compile program.src --discipline explicit-interlock
    repro compile program.src --verify "a=3,b=0"
    repro compile -e "for i in 0..8 { p = a * b; a = a + b; }" --show all

A source whose single statement is a ``for`` loop is compiled by the
modulo software pipeliner (``repro.sched.pipelining``): the output is a
steady-state kernel with an initiation interval instead of a one-shot
NOP-padded stream, always re-checked by the independent steady-state
certificate.  ``--trip-count`` overrides the loop bounds for the
``--verify`` execution (useful when a bound is symbolic).

``--machine`` accepts a preset name (see ``--list-machines``) or
``@path`` to a machine-description file (``repro.machine.serialize``
format).  Exit status is non-zero on compile or verification failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from .codegen.assembly import DelayDiscipline
from .driver import (
    SCHEDULERS,
    compile_block,
    compile_loop,
    compile_program,
    compile_source,
)
from .ir.textual import format_block
from .machine.presets import PRESETS, get_machine
from .machine.serialize import load_machine
from .sched.search import SearchOptions
from .telemetry import Telemetry

_DISCIPLINES = {d.value: d for d in DelayDiscipline}

SHOW_CHOICES = ("asm", "tuples", "dag", "schedule", "timeline", "explain", "stats", "all")


def _parse_memory(text: str) -> Dict[str, int]:
    """Parse ``a=3,b=15`` into an initial-memory mapping."""
    out: Dict[str, int] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise argparse.ArgumentTypeError(
                f"memory entries look like name=value (got {piece!r})"
            )
        name, _, value = piece.partition("=")
        try:
            out[name.strip()] = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"memory value for {name.strip()!r} is not an integer"
            ) from None
    return out


def _resolve_machine(spec: str):
    if spec.startswith("@"):
        return load_machine(spec[1:])
    return get_machine(spec)


def _certify_block(block, machine, timing, assignment, conditions=None):
    """Re-derive one compiled schedule through the independent checker.

    Returns the :class:`repro.verify.certificate.CertificateReport`; the
    checker shares no code with the schedulers, so its agreement is
    evidence rather than tautology.
    """
    from .verify.certificate import check_schedule

    pipe_free = variable_ready = None
    if conditions is not None:
        pipe_free = conditions.pipe_free
        variable_ready = conditions.variable_ready
    return check_schedule(
        block,
        machine,
        timing.order,
        timing.etas,
        assignment=assignment,
        pipe_free=pipe_free,
        variable_ready=variable_ready,
    )


def _certify_program(compiled, machine) -> int:
    """Certify every block of a barrier-partitioned compilation.

    Carry-in conditions are re-threaded block to block exactly as the
    compiler threads them (footnote 1), so each certificate judges the
    schedule under the state it was actually scheduled for.  Returns a
    process exit code (0 = all certified).
    """
    from .sched.interblock import carry_out

    conditions = None
    for i, result in enumerate(compiled.blocks):
        cert = _certify_block(
            result.block, machine, result.timing,
            result.pipeline_assignment, conditions,
        )
        if not cert.ok:
            print(
                f"repro-compile: certificate REJECTED block {i}:\n"
                f"{cert.summary()}",
                file=sys.stderr,
            )
            return 1
        conditions = carry_out(result.timing, result.dag, machine)
    return 0


def build_parser(prog: str = "repro-compile") -> argparse.ArgumentParser:
    from .cliutil import common_flags

    parser = argparse.ArgumentParser(
        prog=prog,
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[
            common_flags(
                ("curtail", "engine", "stats-json"),
                overrides={
                    "stats-json": dict(
                        help="write search telemetry (prune counters, "
                        "phase times) to PATH as JSON"
                    ),
                },
            )
        ],
    )
    parser.add_argument(
        "source", nargs="?", help="source file ('-' for stdin)"
    )
    parser.add_argument(
        "-e", "--expr", metavar="CODE", help="compile CODE instead of a file"
    )
    parser.add_argument(
        "--machine",
        default="paper-simulation",
        help="preset name or @path to a machine file (default: paper-simulation)",
    )
    parser.add_argument(
        "--list-machines", action="store_true", help="list preset machines and exit"
    )
    parser.add_argument(
        "--scheduler", choices=SCHEDULERS, default="optimal"
    )
    parser.add_argument(
        "--discipline",
        choices=sorted(_DISCIPLINES),
        default=DelayDiscipline.NOP_PADDED.value,
    )
    parser.add_argument(
        "--registers", type=int, default=None, metavar="K",
        help="register-file size (enables the spill pre-pass and the "
        "pressure-constrained search)",
    )
    parser.add_argument(
        "--no-optimize", action="store_true", help="skip the classical optimizer"
    )
    parser.add_argument(
        "--tuples",
        action="store_true",
        help="input is linear tuple notation (Figure 3) instead of source",
    )
    parser.add_argument(
        "--trip-count", type=int, default=None, metavar="N",
        help="loop input only: execute N iterations for --verify "
        "(default: resolved from the loop bounds)",
    )
    parser.add_argument(
        "--verify", type=_parse_memory, default=None, metavar="MEM",
        help='simulate against source semantics from initial memory "a=3,b=0" '
        "and re-derive the schedule through the independent certificate "
        "checker (repro.verify)",
    )
    parser.add_argument(
        "--show",
        action="append",
        choices=SHOW_CHOICES,
        default=None,
        help="what to print (repeatable; default: asm)",
    )
    parser.add_argument(
        "-o", "--output", default=None, help="write assembly to a file"
    )
    return parser


def main(argv: Optional[List[str]] = None, prog: str = "repro-compile") -> int:
    parser = build_parser(prog)
    args = parser.parse_args(argv)

    if args.list_machines:
        for name in sorted(PRESETS):
            machine = get_machine(name)
            pipes = ", ".join(
                f"{p.function}(l{p.latency}/e{p.enqueue_time})"
                for p in machine.pipelines
            )
            print(f"{name:<20} {pipes}")
        return 0

    if args.expr is not None and args.source:
        parser.error("give either a source file or -e CODE, not both")
    if args.expr is not None:
        source = args.expr
    elif args.source == "-":
        source = sys.stdin.read()
    elif args.source:
        try:
            with open(args.source) as fh:
                source = fh.read()
        except OSError as exc:
            print(f"repro-compile: {exc}", file=sys.stderr)
            return 2
    else:
        parser.error("no source given (file, '-', or -e CODE)")

    try:
        machine = _resolve_machine(args.machine)
    except (KeyError, OSError, ValueError) as exc:
        print(f"repro-compile: {exc}", file=sys.stderr)
        return 2

    show = set(args.show or ["asm"])
    if "all" in show:
        show = set(SHOW_CHOICES) - {"all"}

    telemetry = Telemetry() if args.stats_json else None

    def _write_stats() -> None:
        if telemetry is not None:
            telemetry.write_json(
                args.stats_json,
                meta={"scheduler": args.scheduler, "machine": args.machine},
            )

    multi_block = (not args.tuples) and "barrier" in source
    loop_input = False
    if not args.tuples:
        try:
            from .frontend import parse_program

            loop_input = parse_program(source).has_loops
        except Exception:
            loop_input = False  # the normal path reports the parse error
    try:
        if loop_input:
            compiled_loop = compile_loop(
                source,
                machine,
                options=SearchOptions(curtail=args.curtail, engine=args.engine),
                verify_memory=args.verify,
                trip_count=args.trip_count,
                telemetry=telemetry,
            )
            _write_stats()
            return _emit_loop(compiled_loop, show, args)
        if args.tuples:
            from .ir.textual import parse_block

            # Tuple input has no source semantics to simulate against;
            # --verify degrades to the certificate check alone (below).
            result = compile_block(
                parse_block(source),
                machine,
                scheduler=args.scheduler,
                options=SearchOptions(curtail=args.curtail, engine=args.engine),
                # Hand-written tuples are the intended code: never optimized.
                optimize=False,
                num_registers=args.registers,
                discipline=_DISCIPLINES[args.discipline],
                telemetry=telemetry,
            )
        elif multi_block:
            compiled = compile_program(
                source,
                machine,
                scheduler=args.scheduler,
                options=SearchOptions(curtail=args.curtail, engine=args.engine),
                optimize=not args.no_optimize,
                num_registers=args.registers,
                discipline=_DISCIPLINES[args.discipline],
                verify_memory=args.verify,
                telemetry=telemetry,
            )
            _write_stats()
            if args.verify is not None:
                code = _certify_program(compiled, machine)
                if code:
                    return code
            return _emit_program(compiled, show, args)
        else:
            result = compile_source(
                source,
                machine,
                scheduler=args.scheduler,
                options=SearchOptions(curtail=args.curtail, engine=args.engine),
                optimize=not args.no_optimize,
                num_registers=args.registers,
                discipline=_DISCIPLINES[args.discipline],
                verify_memory=args.verify,
                telemetry=telemetry,
            )
    except KeyboardInterrupt:
        _write_stats()  # partial counters beat losing the run's telemetry
        print("\nrepro-compile: interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        print(f"repro-compile: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _write_stats()

    cert = None
    if args.verify is not None:
        cert = _certify_block(
            result.block, machine, result.timing, result.pipeline_assignment
        )
        if not cert.ok:
            print(
                f"repro-compile: certificate REJECTED the schedule:\n"
                f"{cert.summary()}",
                file=sys.stderr,
            )
            return 1

    chunks: List[str] = []
    if "tuples" in show:
        chunks.append("; tuple code\n" + format_block(result.block))
    if "dag" in show:
        chunks.append(str(result.dag))
    if "schedule" in show:
        pairs = ", ".join(
            f"{ident}@{t}" for ident, t in
            zip(result.timing.order, result.timing.issue_times)
        )
        chunks.append(f"; schedule (ident@cycle): {pairs}")
    if "timeline" in show:
        from .analysis import render_timeline

        chunks.append(
            render_timeline(
                result.block, machine, result.timing, dag=result.dag
            )
        )
    if "explain" in show:
        from .analysis import explain_schedule

        explanations = explain_schedule(
            result.block, machine, result.timing, dag=result.dag
        )
        chunks.append(
            "\n".join(f"; {e}" for e in explanations if e.eta > 0)
            or "; no stalls anywhere"
        )
    if "asm" in show:
        chunks.append(str(result.assembly))
    if "stats" in show:
        stats = [
            f"; instructions: {len(result.block)}",
            f"; NOPs: {result.total_nops}",
            f"; issue span: {result.issue_span_cycles} cycles",
            f"; registers used: {result.allocation.num_registers_used}",
        ]
        if result.search is not None:
            stats.append(
                f"; search: {result.search.omega_calls} omega calls, "
                + ("provably optimal" if result.search.completed else "truncated")
            )
        if args.verify is not None and not args.tuples:
            stats.append("; verification: simulated output matches source semantics")
        if cert is not None:
            stats.append(
                f"; verification: certificate re-derived "
                f"{cert.required_nops} NOPs independently"
            )
        chunks.append("\n".join(stats))

    return _emit_text("\n\n".join(chunks) + "\n", args)


def _emit_text(text: str, args) -> int:
    if args.output:
        from .ioutil import atomic_write_text

        try:
            atomic_write_text(args.output, text)
        except OSError as exc:
            print(
                f"repro-compile: cannot write {args.output}: {exc}",
                file=sys.stderr,
            )
            return 1
    else:
        sys.stdout.write(text)
    return 0


def _emit_loop(compiled, show, args) -> int:
    """Render a loop compilation: steady-state kernel, not a flat stream."""
    result = compiled.result
    loop = compiled.loop
    chunks: List[str] = []
    if "tuples" in show:
        carried = "".join(
            f"\n; carried: {d.producer} -> {d.consumer} "
            f"({d.kind}, distance {d.distance})"
            for d in loop.carried
        )
        chunks.append("; loop body tuple code\n" + format_block(loop.body) + carried)
    if "dag" in show:
        from .ir.dag import DependenceDAG

        chunks.append(str(DependenceDAG(loop.body)))
    if "schedule" in show:
        pairs = ", ".join(
            f"{z}@{off}" for z, off in sorted(result.offsets.items())
        )
        chunks.append(f"; modulo schedule (ident@offset): {pairs}")
    if "asm" in show:
        chunks.append(
            f"; steady-state kernel, II = {result.ii} cycles\n"
            + result.kernel_text
        )
    if "stats" in show:
        status = "provably optimal" if result.completed else "best known"
        stats = [
            f"; body instructions: {len(loop.body)}",
            f"; initiation interval: {result.ii} cycles ({status})",
            f"; MII: {result.mii} (resource {result.res_mii}, "
            f"recurrence {result.rec_mii})",
            f"; steady-state list schedule II: {result.list_ii} cycles",
            f"; stages in flight: {result.stage_count}",
            f"; certificate: independently re-derived, bound "
            f"{compiled.certificate.ii_lower_bound}, "
            f"{compiled.certificate.replayed_iterations} iterations replayed",
        ]
        if args.verify is not None:
            stats.append(
                "; verification: overlapped stream matches source semantics"
            )
        chunks.append("\n".join(stats))
    if not chunks:
        chunks.append(
            f"; steady-state kernel, II = {result.ii} cycles\n"
            + result.kernel_text
        )
    return _emit_text("\n\n".join(chunks) + "\n", args)


def _emit_program(compiled, show, args) -> int:
    """Render a multi-block (barrier-partitioned) compilation."""
    chunks: List[str] = []
    if "tuples" in show:
        chunks.extend(
            f"; tuple code, block {i}\n" + format_block(b.block)
            for i, b in enumerate(compiled.blocks)
        )
    if "dag" in show:
        chunks.extend(str(b.dag) for b in compiled.blocks)
    if "schedule" in show:
        for i, b in enumerate(compiled.blocks):
            pairs = ", ".join(
                f"{ident}@{t}" for ident, t in
                zip(b.timing.order, b.timing.issue_times)
            )
            chunks.append(f"; block {i} schedule (ident@cycle): {pairs}")
    if "asm" in show:
        chunks.append(compiled.assembly_text)
    if "stats" in show:
        stats = [
            f"; blocks: {len(compiled)}",
            f"; total NOPs: {compiled.total_nops}",
            f"; total issue span: {compiled.total_cycles} cycles",
        ]
        if compiled.blocks and compiled.blocks[0].search is not None:
            status = "all provably optimal" if compiled.all_optimal else "some truncated"
            stats.append(f"; search: {status}")
        if args.verify is not None:
            stats.append("; verification: simulated output matches source semantics")
        chunks.append("\n".join(stats))
    return _emit_text("\n\n".join(chunks) + "\n", args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
