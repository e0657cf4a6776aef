"""``run_suite("all")`` runs its rows on workers forked for the call.

The report must be the in-process loop over ``CHECKS`` field for field, a
row's ``WeylError`` must come out of the call as itself, every worker must
be forked before the pool starts a thread and joined before the call ends,
and there are never more workers than usable CPUs or rows.  The rows run in
the calling process for a single suite, on one usable CPU, in a daemonic
worker and beside another thread.  Each test that
wants the pool reports two usable CPUs, so it runs on a one-CPU host too.
"""

import dataclasses
import multiprocessing
import os
import threading

import pytest

from weylccr import TAU, ExpressionError, Frame, WindowTooSmall, verify
from weylccr.cli import main
from weylccr.serialization import frame_from_json
from weylccr.verify import CHECKS, RunConfig, run_suite

pytestmark = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the pool forks its workers")

SKEW_D2 = {"d": 2, "E": [[{"num": {"0": "1", "1": "1"}}, "1/3"], ["0", {"num": {"1": "1"}}]]}


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs, and the Python thread count at each fork of this
    process (the workers' own forks are not seen here)."""
    _cpus(monkeypatch, 2)
    seen, real_fork, parent = [], os.fork, os.getpid()

    def fork():
        if os.getpid() == parent:
            seen.append(threading.active_count())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return seen


def _fields(results) -> list:
    """Every field of every result, floats by ``repr``."""
    return [(type(r).__name__,) + tuple(repr(getattr(r, f.name)) for f in dataclasses.fields(r))
            for r in results]


@pytest.mark.parametrize("frame, seed", [
    (lambda: Frame.standard(1), 1),
    (lambda: Frame.standard(2), 0),
    (lambda: Frame([[TAU]]), 1),
    (lambda: frame_from_json(SKEW_D2), 0),
], ids=["d1_seed1", "d2_seed0", "tau_d1_seed1", "skew_d2_seed0"])
def test_the_pool_reports_what_the_rows_give_in_process(frame, seed, forks):
    config = RunConfig(frame=frame(), seed=seed)
    got = run_suite("all", config)
    assert forks == [1, 1]  # two workers, forked before the pool starts a thread
    assert multiprocessing.active_children() == []
    assert _fields(got) == _fields([r for run in CHECKS.values() for r in run(config)])


@pytest.mark.parametrize("error", [WindowTooSmall("no room for the probe"),
                                   ExpressionError("unexpected token", 3)],
                         ids=["window", "expression"])
def test_a_row_error_leaves_the_call_as_itself(error, forks, monkeypatch, capsys):
    def raising(config):
        raise error

    # the first row, so the call raises before most rows have run
    monkeypatch.setattr(verify, "CHECKS", {"weyl.raising": raising, **CHECKS})
    with pytest.raises(type(error)) as caught:
        run_suite("all", RunConfig(frame=Frame.standard(1)))
    assert type(caught.value) is type(error) and str(caught.value) == str(error)
    assert multiprocessing.active_children() == []
    assert main(["verify", "--suite", "all"]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert multiprocessing.active_children() == []


def test_one_usable_cpu_runs_the_rows_here(forks, monkeypatch):
    _cpus(monkeypatch, 1)
    rows = {name: run for name, run in CHECKS.items() if name.split(".")[0] in ("tri", "zak")}
    monkeypatch.setattr(verify, "CHECKS", rows)
    config = RunConfig(frame=Frame.standard(1), seed=3)
    assert _fields(run_suite("all", config)) == _fields(
        [r for run in rows.values() for r in run(config)])
    assert forks == []


def test_a_single_suite_runs_here(forks):
    config = RunConfig(frame=Frame.standard(1), seed=3)
    assert _fields(run_suite("zak", config)) == _fields(
        [r for name, run in CHECKS.items() if name.startswith("zak.") for r in run(config)])
    assert forks == []


def test_never_more_workers_than_cpus_or_rows(monkeypatch):
    _cpus(monkeypatch, 8)
    assert [verify._workers(rows) for rows in (0, 1, 2, 5, 39)] == [1, 1, 2, 5, 8]
    _cpus(monkeypatch, 1)
    assert verify._workers(39) == 1


def test_a_daemonic_worker_runs_the_rows_itself(monkeypatch):
    """A ``multiprocessing.Pool`` worker may not have children."""
    _cpus(monkeypatch, 8)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(verify._workers, (39,)).get(timeout=60) == 1


def test_a_caller_with_another_thread_runs_the_rows_itself(monkeypatch):
    _cpus(monkeypatch, 8)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        assert verify._workers(39) == 1
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert verify._workers(39) == 8
