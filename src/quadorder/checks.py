"""Named checks: every claim a report makes, as pass, fail or n/a with a note.

A report is judged by its failed checks alone; n/a rows record a truth
value kept as data, not asserted.  An unmet precondition is a ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

PASS = "pass"
FAIL = "fail"
NA = "n/a"


@dataclass(frozen=True)
class Check:
    name: str
    status: str
    note: str = ""


def check(name: str, ok: bool, note: str = "") -> Check:
    """A pass/fail Check for a claim that was tested."""
    return Check(name, PASS if ok else FAIL, note)


def failed_names(checks) -> tuple[str, ...]:
    """Names of the failed checks in order; empty when every claim held."""
    return tuple(c.name for c in checks if c.status == FAIL)
