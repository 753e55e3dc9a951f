"""The suite table under ``run_suite("all")``: the same report from one
process or several, the first failing suite's error in table order, and no
child process left unreaped after any call."""

import json
import os
import time

import pytest

from bscbounds import verify
from bscbounds.cli import main
from bscbounds.core import DomainError

TABLE = [name for name in verify.SUITE_NAMES if name != "all"]
FORKS = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    if hasattr(os, "WNOHANG"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Count the workers ``run_suite`` forks; each fork still happens."""
    made = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork, raising=False)
    return made


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def stub(name, fail=None, delay=0.0):
    """A suite that sleeps ``delay`` s, then raises ``fail`` or reports."""
    def run(*grid):
        time.sleep(delay)
        if fail is not None:
            raise fail
        return {"suite": name, "passed": True, "checks": []}
    return run


def stub_table(monkeypatch, delay=0.0, **fails):
    for name in TABLE:
        monkeypatch.setattr(verify, f"suite_{name}",
                            stub(name, fails.get(name), delay))


def test_all_equals_table_of_single_suites(forks):
    parts = [verify.run_suite(name) for name in TABLE]
    expect = {"suite": "all", "passed": all(p["passed"] for p in parts),
              "suites": parts}
    got = verify.run_suite("all")
    assert json.dumps(got) == json.dumps(expect)
    # the processes of one call never outnumber the usable CPUs
    assert len(forks) == verify._workers() - 1
    if FORKS:
        assert verify._workers() == min(len(os.sched_getaffinity(0)), len(TABLE))


def test_all_on_one_cpu_runs_in_process(monkeypatch, forks):
    parts = [verify.run_suite(name, p_values=[0.05, 0.1])
             if name == "claims" else verify.run_suite(name) for name in TABLE]
    one_cpu(monkeypatch)
    got = verify.run_suite("all", p_values=[0.05, 0.1])
    assert forks == []
    assert json.dumps(got["suites"]) == json.dumps(parts)


@pytest.mark.parametrize("cpus", ["usable", "one"])
@pytest.mark.parametrize("failing", [("hahn",), ("identity16", "oracle"),
                                     ("claims", "prop1")])
def test_failing_suite_exits_2_with_first_in_table(monkeypatch, capsys,
                                                    cpus, failing):
    if cpus == "one":
        one_cpu(monkeypatch)
    stub_table(monkeypatch, delay=0.01,
               **{name: DomainError(f"{name} is out of domain") for name in failing})
    assert main(["verify", "--suite", "all"]) == 2
    captured = capsys.readouterr()
    first = min(failing, key=TABLE.index)
    assert captured.err == f"bscbounds: {first} is out of domain\n"
    assert captured.out == ""


def test_earlier_suite_error_wins_over_earlier_finish(monkeypatch):
    # prop1 fails last in time but first in the table
    stub_table(monkeypatch, oracle=DomainError("oracle early"))
    monkeypatch.setattr(verify, "suite_prop1",
                        stub("prop1", DomainError("prop1 late"), delay=0.2))
    with pytest.raises(DomainError, match="prop1 late"):
        verify.run_suite("all")


@pytest.mark.skipif(not FORKS or len(os.sched_getaffinity(0)) < 2,
                    reason="needs fork and two usable CPUs")
def test_child_error_carries_its_traceback(monkeypatch):
    parent = os.getpid()

    def only_in_child():
        time.sleep(0.05)
        if os.getpid() != parent:
            raise ZeroDivisionError("raised in a child")
        return {"suite": "x", "passed": True, "checks": []}

    for name in TABLE:
        monkeypatch.setattr(verify, f"suite_{name}", lambda *grid: only_in_child())
    with pytest.raises(ZeroDivisionError, match="raised in a child") as info:
        verify.run_suite("all")
    cause = str(info.value.__cause__)
    assert "in suite worker" in cause and "only_in_child" in cause


def test_worker_that_dies_is_named_and_reaped(monkeypatch):
    # a child that ends without writing its report is named, not skipped
    if verify._workers() < 2:
        pytest.skip("needs two workers")
    stub_table(monkeypatch, delay=0.05)
    parent = os.getpid()

    def identity16():
        if os.getpid() != parent:
            os._exit(3)
        return stub("identity16")()

    monkeypatch.setattr(verify, "suite_identity16", identity16)
    try:
        report = verify.run_suite("all")
    except RuntimeError as exc:
        assert "ended without reporting" in str(exc)
    else:   # the parent took identity16 itself
        assert report["passed"] is True
