"""Checks that every test in this directory gets."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """After each test, no child process of this one is left, running or
    waiting to be reaped: a save that starts a second process kills and
    reaps it on every path."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
