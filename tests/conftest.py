import importlib
import pkgutil
import signal

import pytest

# seconds one test may run before it fails; a hang would otherwise stall the whole suite
TIME_LIMIT_S = 60


class AcceptanceLog:
    """Collects one verdict line per acceptance criterion for the run summary."""

    def __init__(self) -> None:
        self._seq = 0
        self.lines: list[tuple[int, int, str]] = []

    def _add(self, num: int, text: str) -> None:
        self._seq += 1
        self.lines.append((num, self._seq, text))

    def verdict(self, num: int, label: str, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        tail = f"  ({detail})" if detail else ""
        line = f"[criterion {num:02d}] {label}: {status}{tail}"
        self._add(num, line)
        print(line)
        assert ok, line

    def info(self, num: int, text: str) -> None:
        self._add(num, f"    {text}")
        print(text)


def package_caches() -> list:
    """Every cache in the quadorder modules: each module attribute with a cache_clear, once."""
    import quadorder  # here, so that this file loads on its own (see test_time_limit.py)

    modules = [importlib.import_module(f"quadorder.{info.name}")
               for info in pkgutil.iter_modules(quadorder.__path__)]
    found = {id(value): value for module in modules for value in vars(module).values()
             if hasattr(value, "cache_clear")}
    return list(found.values())


_LOG = AcceptanceLog()
_PANEL: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log() -> AcceptanceLog:
    return _LOG


@pytest.fixture(scope="session")
def panel_log() -> list[str]:
    """Lines for the run summary's "reference panel" section."""
    return _PANEL


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _PANEL:
        terminalreporter.section("reference panel")
        for line in _PANEL:
            terminalreporter.write_line(line)
    if _LOG.lines:
        terminalreporter.section("acceptance criteria")
        for _, _, line in sorted(_LOG.lines, key=lambda t: (t[0], t[1])):
            terminalreporter.write_line(line)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        raise TimeoutError(f"{item.nodeid} ran past the {TIME_LIMIT_S} s time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    # and again each second after, so a test that catches the first one, or hypothesis
    # replaying the failing example, still stops
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S, 1)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
