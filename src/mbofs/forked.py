"""Independent tasks run from one two-process work queue.

The `method = all` searches (harness) and an evaluation step's fold trees
(classifiers) run through `side_by_side`; its NB folds are one kernel batch.

A fork, not a spawned interpreter: the child needs the matrix and the
imports this process already holds, and a spawned worker took 0.5-0.7 s to
start on a 2-core host. A child starts as a copy-on-write image of this
process and adds its own working set; it reads the presorts made before the
fork without copying them. mbofs starts no thread of its own, and numpy's
OpenBLAS stops its thread pool before a fork (a pthread_atfork handler) and
starts it again on its next call, in parent and child alike.
From Python 3.12 on, a fork in a process with more than one thread raises a
DeprecationWarning.
"""

from __future__ import annotations

import multiprocessing
import traceback


class _ChildTraceback(Exception):
    """The formatted traceback of an error raised in a forked child."""

    def __str__(self):
        return self.args[0]


def _claim(counter, n: int):
    """The next task no process has taken yet, or None when all are taken."""
    with counter.get_lock():
        i = counter.value
        counter.value = i + 1
    return i if i < n else None


def _child(tasks: list, counter, conn):
    """A forked child's body: task 1, then each task it claims, one at a time.
    Each finished task sends (index, True, result, None) or (index, False,
    error, traceback) before the next is claimed. An interrupt or exit is not
    sent: the child ends without that task's result."""
    i = 1
    while i is not None:
        try:
            message = (i, True, tasks[i](), None)
        except Exception as exc:
            message = (i, False, exc, traceback.format_exc())
        conn.send(message)
        i = _claim(counter, len(tasks))


def side_by_side(tasks: dict, lost) -> list:
    """The result of each task (a dict of name -> callable), in task order.

    The tasks are independent, so where the platform can fork and there are
    two or more, they run from a two-process work queue (Graham's list
    scheduling, SIAM J. Appl. Math., 1969): one daemonic child is forked
    with multiprocessing's "fork" start method and starts on task 1 while
    this process runs task 0. After that, each process takes the next task
    neither has taken, from a counter they share, made before the fork;
    list the largest tasks first. The child sends back each result (or
    error) over a one-way pipe as soon as that task is done. This process
    runs tasks until the next result in task order is in, and waits on the
    child only when none is left to take. The first error in task order is
    raised as soon as it and every result before it are in, whichever
    process ran it; a child's error has the same type and message, the
    child's traceback as its cause. A child that ends without sending a
    result raises `lost("the <name> process exited with code <n> and sent
    no result")`, <name> being the task it was running. On the way out, a
    child still running is terminated and joined, so an error here leaves
    none behind. Without fork (Windows), every task runs here, in order.
    """
    names, calls = list(tasks), list(tasks.values())
    if len(calls) < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [call() for call in calls]
    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("q", 2)  # tasks 0 and 1 are taken; a semaphore, no helper process
    reader, writer = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(calls, counter, writer), daemon=True)
    proc.start()
    writer.close()  # so the reader sees EOF if the child dies without a result
    done = {}  # task index -> (ok, result or error, child traceback or None)
    mine = 0  # the task this process runs next; None when all are taken
    try:
        for i, name in enumerate(names):
            while i not in done:
                if mine is not None:
                    try:
                        done[mine] = (True, calls[mine](), None)
                    except Exception as exc:
                        done[mine] = (False, exc, None)
                    mine = _claim(counter, len(calls))
                    continue
                # task i is the child's; it sends its tasks in the order it
                # claims them, so if the pipe closes first, i is the one it ran
                try:
                    j, *message = reader.recv()
                except EOFError:
                    proc.join()
                    raise lost(f"the {name} process exited with code "
                               f"{proc.exitcode} and sent no result") from None
                done[j] = tuple(message)
            ok, value, remote = done[i]
            if remote is not None:
                raise value from _ChildTraceback(remote)
            if not ok:
                raise value
        return [done[i][1] for i in range(len(calls))]
    finally:
        proc.terminate()  # a no-op once the child has exited
        proc.join()
        reader.close()
