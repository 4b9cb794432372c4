"""Structured violation records shared by every verification layer.

A :class:`Violation` pinpoints *where* an invariant broke — the node, the
hierarchy level, the domain, the offending link — so a failure in a
10^4-node build or a 2000-event churn schedule is actionable without
re-running under a debugger.  Checkers yield violations instead of
asserting; callers decide whether to collect, count or raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class Violation:
    """One broken invariant instance.

    ``check`` names the registered checker (e.g. ``ring-successor``),
    ``family`` the network family it ran against.  ``node``, ``level``,
    ``domain`` and ``link`` localise the failure where applicable:
    ``level`` is a hierarchy depth for ring checks and a bucket/bit index
    for XOR and hypercube checks.
    """

    check: str
    family: str
    message: str
    node: Optional[int] = None
    level: Optional[int] = None
    domain: Optional[Tuple[str, ...]] = None
    link: Optional[int] = None

    def __str__(self) -> str:
        where = []
        if self.node is not None:
            where.append(f"node={self.node}")
        if self.link is not None:
            where.append(f"link={self.link}")
        if self.level is not None:
            where.append(f"level={self.level}")
        if self.domain is not None:
            where.append(f"domain={'.'.join(self.domain) or '<root>'}")
        loc = f" [{' '.join(where)}]" if where else ""
        return f"{self.check}({self.family}){loc}: {self.message}"


class InvariantViolationError(AssertionError):
    """Raised by :func:`repro.verify.verify_network` on any violation.

    Subclasses :class:`AssertionError` so test harnesses treat it as a
    failed assertion; carries the full violation list for reporting.
    """

    def __init__(self, violations: List[Violation]) -> None:
        self.violations = list(violations)
        head = "\n".join(f"  {v}" for v in self.violations[:10])
        extra = len(self.violations) - 10
        tail = f"\n  ... and {extra} more" if extra > 0 else ""
        super().__init__(
            f"{len(self.violations)} invariant violation(s):\n{head}{tail}"
        )


def summarize(violations: List[Violation]) -> str:
    """A per-check count table, the fuzz CLI's violations summary."""
    counts: dict = {}
    for v in violations:
        counts[(v.check, v.family)] = counts.get((v.check, v.family), 0) + 1
    if not counts:
        return "no violations"
    lines = [
        f"  {check}({family}): {n}"
        for (check, family), n in sorted(counts.items())
    ]
    return "\n".join([f"{len(violations)} violation(s):"] + lines)
