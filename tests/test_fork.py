"""The fork queue ``_fork.fork_map`` and its two users: the sequential
list's results and error from any worker count and any order, a child's
traceback carried to the caller, no fork inside a worker, and the split
census integer-equal to the in-process one.  No child process is left
unreaped after any test."""

import itertools
import os
import time

import numpy as np
import pytest

from bscbounds import _fork, oracle, verify
from bscbounds._fork import fork_map
from bscbounds.oracle import BinaryCode, random_code

FORKS = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    if hasattr(os, "WNOHANG"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Count the workers this process forks; each fork still happens."""
    made = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork, raising=False)
    return made


def cpus(monkeypatch, which):
    """Pin the usable CPUs to one, or claim three on any host."""
    mask = {"one": {0}, "three": {0, 1, 2}}[which]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask, raising=False)


def square(i):
    return {"i": i, "square": i * i}


@pytest.mark.parametrize("cpu", ["one", "usable"])
def test_results_are_the_sequential_list(monkeypatch, forks, cpu):
    if cpu == "one":
        cpus(monkeypatch, "one")
    assert fork_map(square, 7) == [square(i) for i in range(7)]
    assert len(forks) == _fork.workers(7) - 1
    if cpu == "one":
        assert forks == []
    elif FORKS:
        assert _fork.workers(7) == min(len(os.sched_getaffinity(0)), 7)


def test_every_order_gives_the_sequential_result_and_error():
    def run(i):
        time.sleep(0.002 * (3 - i))     # the higher index finishes first
        if i in (1, 3):
            raise ValueError(f"job {i}")
        return i

    for order in itertools.permutations(range(4)):
        assert fork_map(lambda i: -i, 4, order=order) == [0, -1, -2, -3]
        with pytest.raises(ValueError, match="job 1"):
            fork_map(run, 4, order=order)


def in_child_then_caller(tmp_path, child):
    """A job for two workers: a child runs ``child`` on the job it takes,
    after leaving a mark; the caller waits for the mark, up to 10 s, so the
    child always has a job."""
    parent, mark = os.getpid(), tmp_path / "child-took-a-job"

    def run(i):
        if os.getpid() != parent:
            mark.touch()
            child()
        deadline = time.monotonic() + 10
        while not mark.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        return i
    return run


def test_child_error_carries_its_traceback(tmp_path):
    if _fork.workers(2) < 2:
        pytest.skip("needs fork and two usable CPUs")

    def only_in_child():
        raise ZeroDivisionError("raised in a child")

    with pytest.raises(ZeroDivisionError, match="raised in a child") as info:
        fork_map(in_child_then_caller(tmp_path, only_in_child), 2)
    cause = str(info.value.__cause__)
    assert "in worker" in cause and "only_in_child" in cause


def test_worker_that_dies_is_named_and_reaped(tmp_path):
    # a child that ends without writing its report is named, not skipped
    if _fork.workers(2) < 2:
        pytest.skip("needs fork and two usable CPUs")
    with pytest.raises(RuntimeError, match="ended without reporting"):
        fork_map(in_child_then_caller(tmp_path, lambda: os._exit(3)), 2)


def test_fork_map_inside_a_worker_forks_nothing(forks):
    # each worker's inner call runs every job in its own process
    inner = fork_map(lambda i: fork_map(lambda j: os.getpid(), 3), 2)
    assert [len(set(pids)) for pids in inner] == [1, 1]
    assert len(forks) == _fork.workers(2) - 1
    assert not _fork._inside


def test_queue_order_is_a_permutation_of_the_table():
    assert sorted(verify._LONGEST_FIRST) == sorted(verify._SUITES)


def test_roster_is_built_before_the_fork(monkeypatch):
    # every suite stubbed: only run_suite itself builds the roster
    for name in verify._SUITES:
        monkeypatch.setattr(verify, f"suite_{name}", lambda *grid: {"passed": True})
    verify._roster.cache_clear()
    verify.run_suite("all")
    assert verify._roster.cache_info().currsize == 1
    assert verify.builtin_roster() is not verify.builtin_roster()
    assert verify.builtin_roster() == list(verify._roster())


_CENSUS_CODES = [BinaryCode(1, (1,)), BinaryCode(2, (0, 3)),
                 random_code(7, 1, 4), random_code(7, 2, 4), random_code(7, 40, 4),
                 random_code(8, 1, 5), random_code(8, 2, 5), random_code(8, 40, 5)]


@pytest.mark.parametrize("cpu", ["usable", "three"])
@pytest.mark.parametrize("code", _CENSUS_CODES,
                         ids=[f"n{c.n}_m{c.M}" for c in _CENSUS_CODES])
def test_forked_census_is_the_in_process_census(monkeypatch, forks, code, cpu):
    # three workers do not divide a half-range of 2^(n-1) outputs
    if cpu == "three":
        cpus(monkeypatch, "three")
    monkeypatch.setattr(oracle, "_FORK_WORK", 1 << 62)
    whole = oracle._census.__wrapped__(code)
    assert forks == []
    monkeypatch.setattr(oracle, "_FORK_WORK", 1)
    split = oracle._census.__wrapped__(code)
    assert len(forks) == _fork.workers(1 << (code.n - 1)) - 1
    for got, want in ((split.dmin_hist, whole.dmin_hist), (split.cover, whole.cover)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
