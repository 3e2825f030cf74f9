"""Independent tasks run from one two-process work queue.

The `method = all` searches (harness) and the fold trees and NB folds of
an evaluation step (classifiers) all run through `side_by_side`.
"""

from __future__ import annotations

import contextlib
import functools
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


class _Queue:
    """The calling process's side of the queue: it runs task 0 and each task it
    claims, and reads the child's results off the pipe."""

    def __init__(self, names: list, tasks: list, lost, counter, proc, conn):
        self.names, self.tasks, self.lost = names, tasks, lost
        self.counter, self.proc, self.conn = counter, proc, conn
        self.next = 0  # the task this process runs next; None when all are taken
        self.done = {}  # task index -> (ok, result or error, child traceback or None)

    def result(self, i: int):
        """Task i's result, or its error raised again here. Until task i is
        done, this process runs the next unclaimed task, and waits on the child
        only when none is left."""
        while i not in self.done:
            if self.next is None:
                self._receive(i)
                continue
            try:
                self.done[self.next] = (True, self.tasks[self.next](), None)
            except Exception as exc:
                self.done[self.next] = (False, exc, None)
            self.next = _claim(self.counter, len(self.tasks))
        ok, value, remote = self.done[i]
        if ok:
            return value
        if remote is None:
            raise value
        raise value from _ChildTraceback(remote)

    def _receive(self, i: int):
        """The child's next message. Task i is the child's and has not come
        back; the child sends its tasks in the order it claims them, so if the
        pipe closes first, i is the task the child was running."""
        try:
            j, *message = self.conn.recv()
        except EOFError:
            self.proc.join()
            raise self.lost(f"the {self.names[i]} process exited with code "
                            f"{self.proc.exitcode} and sent no result") from None
        self.done[j] = tuple(message)


@contextlib.contextmanager
def side_by_side(tasks: dict, lost):
    """Yields one callable per task (a dict of name -> callable), in order,
    each giving that task's result.

    The tasks are independent, so where the platform can fork and there are
    two or more, they run from a two-process work queue (Graham's list
    scheduling): one daemonic child is forked now and starts on task 1, and
    this process runs task 0 when a result is first asked for. After that,
    each process takes the next task neither has taken, from a counter
    they share, made before the fork; list the largest tasks first. The
    child sends back each result (or error) over a one-way pipe as soon as
    that task is done. A result callable runs tasks here until its own
    task's result is in; an error, from either process, is raised by its
    own task's callable. A child's error has the same type and message, the
    child's traceback as its cause. A child that ends without sending a
    result raises `lost("the <name> process exited with code <n> and sent
    no result")`, <name> being the task it was running. On the way out, a
    child still running is terminated and joined, so an error here leaves
    none behind. Without fork, every task runs here, in order.
    """
    names, calls = list(tasks), list(tasks.values())
    if len(calls) < 2 or "fork" not in multiprocessing.get_all_start_methods():
        yield calls
        return
    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("q", 2)  # tasks 0 and 1 are taken; a semaphore, no helper process
    reader, writer = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(calls, counter, writer), daemon=True)
    proc.start()
    writer.close()  # so the reader sees EOF if the child dies without a result
    try:
        queue = _Queue(names, calls, lost, counter, proc, reader)
        yield [functools.partial(queue.result, i) for i in range(len(calls))]
    finally:
        proc.terminate()  # a no-op once the child has exited
        proc.join()
        reader.close()
