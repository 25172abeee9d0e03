"""The native engine (`repro.sched.core` + C kernel) against the reference.

The native engine's contract is *bit-for-bit* equality with the
recursive reference — every ``SearchResult`` field except wall time.
These tests pin that contract:

* differential fuzzing (hypothesis blocks x random + adversarial
  machines) over the engine pair, with the native schedule re-derived
  through the independent certificate checker;
* the degradation paths: dominance-memo eviction under a tiny
  ``max_memo_entries``, curtail, and wall-clock deadlines (including the
  ``BlockRecord.degraded`` path the experiments publish) — under both
  engines;
* carry-in conditions and the windowed splitter on large blocks;
* the engine switch itself (options validation, per-call override, the
  split scheduler's engine parameter, the retired ``fast`` and
  ``vector`` aliases on every entry point).
"""

import pytest
from hypothesis import given, settings

import repro.sched.core as core
from repro.experiments.cli import main as experiments_main
from repro.experiments.runner import schedule_generated_block
from repro.ir.block import BasicBlock
from repro.ir.dag import DependenceDAG
from repro.ir.textual import format_block
from repro.machine.presets import get_machine
from repro.sched.multi import first_pipeline_assignment
from repro.sched.nop_insertion import InitialConditions
from repro.sched.search import ScheduleRequest, SearchOptions, schedule_block
from repro.sched.splitting import schedule_block_split
from repro.service.server import SCHEMA, SchedulingService
from repro.synth.population import PopulationSpec, sample_population
from repro.telemetry import Telemetry
from repro.verify.certificate import check_schedule

from .strategies import any_machines, blocks

#: The engine lattice: both members must agree in all ``SearchResult``
#: fields except ``elapsed_seconds``.  "native" is exercised even without
#: a C compiler — it then runs its documented fallback to "reference",
#: which must preserve the same contract.
ENGINES = core.ENGINES


def _assignment_for(dag, machine):
    """Pin pipelines iff the machine is non-deterministic (matching how
    the experiments drive ``schedule_block``)."""
    if machine.is_deterministic:
        return None
    return first_pipeline_assignment(dag, machine)


def _fields(result):
    """Everything a ``SearchResult`` carries except wall time."""
    return (
        result.best,
        result.initial,
        result.omega_calls,
        result.completed,
        result.improvements,
        result.proved_by_bound,
        result.timed_out,
        result.memo_evicted,
        dict(result.prune_counts),
    )


def _split_fields(result):
    """Everything a ``SplitScheduleResult`` carries except wall time."""
    return (
        result.timing,
        result.windows,
        result.omega_calls,
        result.all_windows_completed,
        dict(result.prune_counts),
    )


def _run_all(dag, machine, options, assignment=None, **kwargs):
    """Run both engines; assert bit-for-bit equality; return native's."""
    results = {
        name: schedule_block(
            dag, machine, options, assignment=assignment, engine=name,
            **kwargs,
        )
        for name in ENGINES
    }
    assert _fields(results["native"]) == _fields(results["reference"])
    return results["native"]


# ----------------------------------------------------------------------
# Differential fuzzing
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(block=blocks(max_size=9), machine=any_machines())
def test_fast_engine_matches_reference(block, machine):
    """Random blocks x (random + adversarial) machines: identical results
    and a valid certificate for the native engine's schedule."""
    dag = DependenceDAG(block)
    assignment = _assignment_for(dag, machine)
    nat = _run_all(dag, machine, SearchOptions(), assignment=assignment)
    cert = check_schedule(
        block,
        machine,
        nat.best.order,
        nat.best.etas,
        assignment=assignment,
    )
    assert cert.ok, cert.summary()


@settings(max_examples=60, deadline=None)
@given(block=blocks(max_size=8), machine=any_machines())
def test_fast_engine_matches_reference_paper_prunes(block, machine):
    """The published prune set (no dominance/lower-bound prunes, no
    heuristic seeding) exercises different engine paths — same contract."""
    dag = DependenceDAG(block)
    _run_all(
        dag,
        machine,
        SearchOptions.paper(),
        assignment=_assignment_for(dag, machine),
    )


def _population(n_blocks, seed=7):
    machine = get_machine("paper-simulation")
    spec = PopulationSpec(statement_shape=2.0, statement_scale=2.0, max_statements=10)
    generated = sample_population(n_blocks, master_seed=seed, spec=spec)
    return machine, [gb for gb in generated if len(gb.block) > 1]


def test_split_engines_match():
    """Window-by-window scheduling: both engines agree on every field
    (the empty block included, which native routes to the reference)."""
    machine, members = _population(30)
    for block in [BasicBlock([])] + [gb.block for gb in members]:
        dag = DependenceDAG(block)
        ref = schedule_block_split(dag, machine, window=5, engine="reference")
        got = schedule_block_split(dag, machine, window=5, engine="native")
        assert _split_fields(got) == _split_fields(ref)


# ----------------------------------------------------------------------
# Memo eviction
# ----------------------------------------------------------------------
def test_memo_eviction_degrades_gracefully():
    """Overflowing ``max_memo_entries`` must cost only speed: both engines
    keep returning optimal schedules, evict identically, and report the
    evictions through ``search.memo_evicted``."""
    machine, members = _population(60, seed=11)
    options = SearchOptions(max_memo_entries=4)
    baseline = SearchOptions()
    telemetry = Telemetry()
    evicted_anywhere = False
    for gb in members:
        dag = DependenceDAG(gb.block)
        nat = schedule_block(
            dag, machine, options, telemetry=telemetry, engine="native"
        )
        ref = schedule_block(dag, machine, options, engine="reference")
        assert _fields(nat) == _fields(ref)
        evicted_anywhere = evicted_anywhere or nat.memo_evicted > 0
        # A starved memo may only cost omega calls, never quality.
        full = schedule_block(dag, machine, baseline, engine="native")
        assert nat.completed and full.completed
        assert nat.final_nops == full.final_nops
        assert nat.omega_calls >= full.omega_calls
    assert evicted_anywhere, "population never overflowed a 4-entry memo"
    assert telemetry.counters["search.memo_evicted"] > 0


def test_memo_disabled_entirely():
    """``max_memo_entries=0`` disables the memo without disabling the
    dominance prune logic's correctness."""
    machine, members = _population(20, seed=13)
    options = SearchOptions(max_memo_entries=0)
    for gb in members[:8]:
        dag = DependenceDAG(gb.block)
        assert _run_all(dag, machine, options).completed


# ----------------------------------------------------------------------
# Curtail and wall-clock deadlines
# ----------------------------------------------------------------------
def test_curtail_honored_by_fast_engine():
    """A tiny omega budget truncates both engines at the same call."""
    machine, members = _population(40, seed=3)
    options = SearchOptions(curtail=1)
    saw_truncation = False
    for gb in members:
        dag = DependenceDAG(gb.block)
        nat = _run_all(dag, machine, options)
        assert nat.omega_calls <= len(dag) * 3 + 1
        saw_truncation = saw_truncation or not nat.completed
    assert saw_truncation, "curtail=1 never truncated a search"


def test_time_limit_honored_by_fast_engine():
    """A vanishing deadline stops both engines immediately and marks
    the result ``timed_out`` (never ``completed``)."""
    machine, members = _population(40, seed=5)
    options = SearchOptions(time_limit=1e-9)
    saw_timeout = False
    for gb in members:
        dag = DependenceDAG(gb.block)
        nat = _run_all(dag, machine, options)
        if nat.timed_out:
            saw_timeout = True
            assert not nat.completed
    assert saw_timeout, "a 1ns time limit never expired a search"


def test_block_timeout_degrades_block_record():
    """Deadline-degraded blocks keep ``degraded=True, completed=False``
    through ``BlockRecord``, and publish the list-schedule seed."""
    machine, members = _population(40, seed=9)
    telemetry = Telemetry()
    degraded = []
    for index, gb in enumerate(members):
        record = schedule_generated_block(
            index,
            gb,
            machine,
            SearchOptions(engine="native"),
            telemetry=telemetry,
            block_timeout=1e-9,
        )
        if record.degraded:
            degraded.append(record)
    assert degraded, "a 1ns block timeout never degraded a block"
    for record in degraded:
        assert not record.completed
        assert record.final_nops == record.seed_nops
    assert telemetry.counters["blocks.degraded"] == len(degraded)


# ----------------------------------------------------------------------
# The engine switch itself
# ----------------------------------------------------------------------
def test_engine_option_validation():
    with pytest.raises(ValueError, match="unknown search engine"):
        SearchOptions(engine="turbo")
    assert SearchOptions().engine == "native"
    for alias in core.ENGINE_ALIASES:
        assert SearchOptions(engine=alias).engine == alias
    machine, members = _population(3, seed=1)
    dag = DependenceDAG(members[0].block)
    with pytest.raises(ValueError, match="unknown search engine"):
        schedule_block(dag, machine, SearchOptions(), engine="turbo")
    with pytest.raises(ValueError, match="unknown search engine"):
        schedule_block_split(dag, machine, engine="turbo")


def test_engine_override_beats_options():
    """The per-call ``engine=`` argument overrides ``options.engine``."""
    machine, members = _population(5, seed=2)
    dag = DependenceDAG(members[0].block)
    options = SearchOptions(engine="reference")
    nat = schedule_block(dag, machine, options, engine="native")
    ref = schedule_block(dag, machine, options)
    assert _fields(nat) == _fields(ref)


def test_engine_aliases_run_native(tmp_path, monkeypatch, capsys):
    """The retired ``fast`` and ``vector`` names stay accepted on every
    entry point — options, ``engine=``, ``ScheduleRequest``, the split,
    a ``--engine fast`` journal resume and a ``{"engine": "fast"}``
    service request — and answer exactly like ``native``.  One process
    naming both prints exactly one notice for each alias."""
    machine, members = _population(6, seed=21)
    dag = DependenceDAG(members[0].block)
    native = _fields(schedule_block(dag, machine, SearchOptions()))
    split_native = _split_fields(schedule_block_split(dag, machine, window=4))
    journal = str(tmp_path / "run.journal")
    args = ["table7", "--blocks", "12", "--curtail", "4000"]

    def table(out):
        # Everything but the wall time and the journal bookkeeping.
        return [
            line
            for line in out.splitlines()
            if "done in" not in line
            and not line.startswith("[journal]")
            and "resuming" not in line
        ]

    assert experiments_main(args + ["--engine", "native"]) == 0
    native_table = table(capsys.readouterr().out)
    service = SchedulingService(options=SearchOptions(curtail=4000))
    request = {
        "schema": SCHEMA,
        "machine": "paper-simulation",
        "blocks": [
            {"name": f"b{i}", "tuples": format_block(gb.block)}
            for i, gb in enumerate(members)
        ],
    }
    native_reply = service.schedule_batch(request)

    monkeypatch.setattr(core, "_alias_warned", set())
    for alias in ("vector", "fast"):
        for result in (
            schedule_block(dag, machine, SearchOptions(engine=alias)),
            schedule_block(dag, machine, SearchOptions(), engine=alias),
            schedule_block(ScheduleRequest(dag, machine, engine=alias)),
        ):
            assert _fields(result) == native, alias
        split = schedule_block_split(dag, machine, window=4, engine=alias)
        assert _split_fields(split) == split_native, alias

    assert experiments_main(args + ["--engine", "fast", "--journal", journal]) == 0
    first = capsys.readouterr()
    with open(journal) as fh:
        lines = fh.readlines()
    with open(journal, "w") as fh:
        fh.writelines(lines[:6])  # the header and five records
    assert experiments_main(args + ["--engine", "fast", "--resume", journal]) == 0
    resumed = capsys.readouterr()
    assert table(first.out) == native_table
    assert "resuming: 5 of 12 blocks recovered" in resumed.out
    assert table(resumed.out) == native_table

    alias_reply = service.schedule_batch(
        dict(request, options={"engine": "fast"})
    )
    assert alias_reply == native_reply

    err = first.err + resumed.err + capsys.readouterr().err
    notices = [line for line in err.splitlines() if "deprecated" in line]
    assert len(notices) == 2, err
    assert err.count("engine 'vector' is deprecated; running 'native'") == 1
    assert err.count("engine 'fast' is deprecated; running 'native'") == 1


# ----------------------------------------------------------------------
# Carry-in conditions and large split blocks
# ----------------------------------------------------------------------
def test_engines_match_with_carry_in_conditions():
    """Carry-in pipeline/variable state (busy pipelines, late variables)
    seeds the flat timing state the native kernel receives; the whole
    lattice, native included, must stay exact under it."""
    machine, members = _population(25, seed=17)
    pid = sorted(p.ident for p in machine.pipelines)[0]
    for gb in members[:10]:
        dag = DependenceDAG(gb.block)
        variables = sorted(
            {t.variable for t in gb.block if t.variable is not None}
        )
        init = InitialConditions(
            pipe_free={pid: 3},
            variable_ready={variables[0]: 5} if variables else {},
        )
        _run_all(dag, machine, SearchOptions(), initial_conditions=init)


def test_split_engines_match_on_large_blocks():
    """Blocks well past the window size exercise the carry-across-window
    state under the native splitter."""
    machine = get_machine("paper-simulation")
    spec = PopulationSpec(
        statement_shape=2.0, statement_scale=4.0, max_statements=25
    )
    for gb in sample_population(10, master_seed=23, spec=spec):
        if len(gb.block) < 8:
            continue
        dag = DependenceDAG(gb.block)
        ref = schedule_block_split(dag, machine, window=6, engine="reference")
        nat = schedule_block_split(dag, machine, window=6, engine="native")
        assert _split_fields(nat) == _split_fields(ref)
