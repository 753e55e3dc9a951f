"""One fork queue: job indices run on forked workers, one per usable CPU.

The caller is worker 0 and forks the others; every worker takes indices
from one pipe, one byte each, until it is empty.  Inside a worker, caller
or child, a call runs in-process, so forks never nest and processes never
outnumber the usable CPUs.  Where ``os.fork`` or ``os.sched_getaffinity``
is missing the same loop runs every job in-process.
"""

from __future__ import annotations

import os
import pickle

__all__ = ["fork_map", "workers"]

_inside = False     # set in a worker for the length of its share of a queue


def workers(count: int) -> int:
    """Processes for count jobs, the caller included: one per usable CPU, at
    most one per job and 256, as a job index is one byte of the queue; 1
    where the platform cannot fork, and inside a worker."""
    if _inside or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), count, 256)


def _take(queue: int, run) -> dict:
    """Run the jobs whose indices this process reads from the queue pipe, one
    byte at a time, until it is empty.  Maps each index to ``(True, result)``
    or ``(False, (exception, traceback text))``."""
    done = {}
    while index := os.read(queue, 1):
        i = index[0]
        try:
            done[i] = True, run(i)
        except Exception as exc:
            import traceback
            done[i] = False, (exc, traceback.format_exc())
    return done


def fork_map(run, count: int, order=None) -> list:
    """``[run(i) for i in range(count)]`` from ``workers(count)`` processes.

    count is at most 256, as an index is one byte of the queue.  ``order``,
    a permutation of ``range(count)``, is the order in which the workers
    take the indices; it defaults to index order.  The exception raised is the lowest failing index's; one raised
    in a child carries the child's traceback text as its cause, and a child
    that ends without reporting raises ``RuntimeError``.  If ``os.fork``
    fails, the call goes on with the workers it has."""
    global _inside
    k = workers(count)
    queue, feed = os.pipe()
    os.write(feed, bytes(range(count) if order is None else order))
    os.close(feed)
    children = {}   # pid -> read end of the child's result pipe
    sent = []
    outer, _inside = _inside, True
    try:
        for _ in range(k - 1):
            result, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:     # fewer workers; the queue still holds every job
                os.close(result)
                os.close(out)
                break
            if pid == 0:
                os.close(result)
                _child(queue, out, run)
            os.close(out)
            children[pid] = result
        done = _take(queue, run)
    finally:
        _inside = outer
        os.close(queue)
        for pid, result in children.items():
            with os.fdopen(result, "rb") as f:
                sent.append((pid, f.read()))
            os.waitpid(pid, 0)
    for pid, data in sent:
        if not data:
            raise RuntimeError(f"worker {pid} ended without reporting")
        theirs = pickle.loads(data)
        for ok, value in theirs.values():
            if not ok:
                exc, text = value
                exc.__cause__ = RuntimeError(f"in worker {pid}:\n{text}")
        done.update(theirs)
    results = []
    for i in range(count):
        ok, value = done[i]
        if not ok:
            raise value[0]
        results.append(value)
    return results


def _child(queue: int, out: int, run) -> None:
    """A forked worker: pickle what ``_take`` returns into ``out`` and leave
    by ``os._exit``, so no exit handler runs and no inherited buffer is
    flushed.  Status 1, and nothing written, if that fails."""
    status = 1
    try:
        done = _take(queue, run)
        with os.fdopen(out, "wb") as f:
            pickle.dump(done, f)
        status = 0
    finally:
        os._exit(status)
