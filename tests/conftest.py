"""Shared pytest plumbing: the acceptance suite registers one summary line
per criterion here so the verdicts stay visible in the terminal report, and
`inline_pool` stands in for the worker pool."""

import pytest

import ringbreak.netsim as netsim

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


class InlineExecutor:
    """Stands in for the pool's executor class: records the worker count of
    each executor built and runs `map` in this process, so no worker process
    is ever started."""

    built: list[int] = []

    def __init__(self, max_workers):
        self.built.append(max_workers)

    def map(self, fn, tasks):
        return map(fn, tasks)

    def shutdown(self):
        pass


@pytest.fixture
def inline_pool(monkeypatch):
    """netsim's executor class patched to InlineExecutor, with no pool cached;
    yields the class, whose `built` lists the executors built."""
    monkeypatch.setattr(netsim, "_pool", None)
    monkeypatch.setattr(InlineExecutor, "built", [])
    monkeypatch.setattr(netsim, "ProcessPoolExecutor", InlineExecutor)
    yield InlineExecutor
    netsim.shutdown_pool()
