import multiprocessing
import os
import time

import pytest

from mbofs.forked import _ChildTraceback, side_by_side


def test_parent_error_is_raised_by_its_own_task():
    """A task that fails in this process, taken while the child still runs an
    earlier task, raises only once every result before it is in."""
    ran = {}

    def failing():
        ran["c"] = os.getpid()
        raise KeyError("c failed")

    tasks = {"a": lambda: "a", "b": lambda: time.sleep(0.5) or "b", "c": failing}
    with pytest.raises(KeyError, match="c failed"):
        side_by_side(tasks, RuntimeError)
    assert ran == {"c": os.getpid()}  # taken here while the child slept
    assert multiprocessing.active_children() == []


def test_first_error_in_task_order_wins_when_both_processes_fail():
    """The child's task 1 fails after this process's task 2 has failed: task
    1's error is the one raised, with the child's traceback as its cause."""

    ran = []

    def late():
        time.sleep(0.5)
        raise ValueError("b failed")

    def early():
        ran.append(os.getpid())
        raise KeyError("c failed")

    tasks = {"a": lambda: "a", "b": late, "c": early}
    with pytest.raises(ValueError, match="b failed") as info:
        side_by_side(tasks, RuntimeError)
    assert isinstance(info.value.__cause__, _ChildTraceback)
    assert "in late" in str(info.value.__cause__)
    assert ran == [os.getpid()]  # task 2 failed here first
    assert multiprocessing.active_children() == []


def test_results_come_back_in_task_order():
    tasks = {name: (lambda name=name: name * 2) for name in "abcde"}
    assert side_by_side(tasks, RuntimeError) == ["aa", "bb", "cc", "dd", "ee"]
    assert side_by_side({"a": lambda: 1}, RuntimeError) == [1]
    assert multiprocessing.active_children() == []
