import multiprocessing
import os
import time

import pytest

from mbofs.forked import side_by_side


def test_parent_error_is_raised_by_its_own_task():
    """A task that fails in this process, taken while the child still runs an
    earlier task, raises only when its own result is asked for."""
    ran = {}

    def failing():
        ran["c"] = os.getpid()
        raise KeyError("c failed")

    tasks = {"a": lambda: "a", "b": lambda: time.sleep(0.5) or "b", "c": failing}
    with side_by_side(tasks, RuntimeError) as (a, b, c):
        assert (a(), b()) == ("a", "b")
        assert ran == {"c": os.getpid()}  # taken here while the child slept
        with pytest.raises(KeyError, match="c failed"):
            c()
    assert multiprocessing.active_children() == []
