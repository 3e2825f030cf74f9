"""Independent tasks run side by side: all but the first in forked children.

The `method = all` searches (harness) and the fold trees of a decision-tree
cross-validation (classifiers) both run through `side_by_side`.
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


def _child(task, conn):
    """A forked child's body: sends (True, result, None) or (False, error, traceback).
    An interrupt or exit is not sent: the child ends without a result."""
    try:
        message = (True, task(), None)
    except Exception as exc:
        message = (False, exc, traceback.format_exc())
    conn.send(message)


def _receive(name: str, lost, proc, conn):
    """A forked task's result, or its error raised again here."""
    try:
        ok, value, remote = conn.recv()
    except EOFError:
        proc.join()
        raise lost(f"the {name} process exited with code {proc.exitcode} "
                   f"and sent no result") from None
    proc.join()
    if ok:
        return value
    raise value from _ChildTraceback(remote)


@contextlib.contextmanager
def side_by_side(tasks: dict, lost):
    """Yields one callable per task (a dict of name -> callable), in order,
    each giving that task's result.

    The tasks are independent, so where the platform can fork, every one
    after the first starts now in a forked daemonic child, which sends its
    result (or its error) back over a one-way pipe; the first runs in this
    process when its callable is called. A child's error is raised again by
    its callable with the same type and message, the child's traceback as
    its cause. A child that ends without sending a result raises
    `lost("the <name> process exited with code <n> and sent no result")`.
    On the way out, children still running are terminated and every child
    is joined, so an error here leaves none behind. Without fork, every task
    runs here, in order.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        yield list(tasks.values())
        return
    ctx = multiprocessing.get_context("fork")
    (_, first), *rest = tasks.items()
    children = []
    try:
        for name, task in rest:
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child, args=(task, writer), daemon=True)
            proc.start()
            writer.close()  # so the reader sees EOF if the child dies without a result
            children.append((name, proc, reader))
        yield [first] + [functools.partial(_receive, name, lost, proc, reader)
                         for name, proc, reader in children]
    finally:
        for _, proc, reader in children:
            proc.terminate()  # a no-op once the child has been joined
            proc.join()
            reader.close()
