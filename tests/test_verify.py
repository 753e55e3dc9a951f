"""The suite table under ``run_suite("all")``: the same report from one
process or several, the first failing suite's error in table order, and no
child process left unreaped after any call (the fixtures of
``test_fork``, whose queue runs the table)."""

import json
import os
import time

import pytest

from bscbounds import _fork, verify
from bscbounds.cli import main
from bscbounds.core import DomainError
from test_fork import FORKS, forks, no_child_left  # noqa: F401

TABLE = [name for name in verify.SUITE_NAMES if name != "all"]


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
    assert len(forks) == _fork.workers(len(TABLE)) - 1
    if FORKS:
        assert _fork.workers(len(TABLE)) == min(len(os.sched_getaffinity(0)), len(TABLE))


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
