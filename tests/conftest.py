import pytest


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
