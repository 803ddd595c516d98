import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process running or unreaped, such as
    a `protocol` bootstrap child its run did not join."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    # pid 0: a child still runs; else the child had ended and is reaped now
    pytest.fail(f"the test left a child process behind (waitpid gave pid {pid})")
