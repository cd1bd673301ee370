"""Uniform result type for harness checks."""

from __future__ import annotations

from dataclasses import dataclass, field

FAILURE_CAP = 20


@dataclass
class AxiomReport:
    """Outcome of one law-checking run.

    `failures` holds serialized witnesses, one string per failed case;
    it is empty exactly when every case passed.  `flags` records
    non-failure facts worth surfacing: exhausted case streams, skipped
    sub-laws, documented findings.  Given the same seed and budget the
    (law, cases, failures, flags) quadruple is reproducible; `elapsed`
    of course is not.
    """

    law: str
    cases: int
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    flags: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def is_finding(self) -> bool:
        return any(f.startswith("documented-finding") for f in self.flags)

    def add_failure(self, witness: str) -> None:
        # Keep reports readable: cap stored witnesses, count the rest.
        if len(self.failures) < FAILURE_CAP:
            self.failures.append(witness[:400])
        elif len(self.failures) == FAILURE_CAP:
            self.failures.append("... further failures suppressed")

    def to_dict(self) -> dict:
        return {
            "law": self.law,
            "cases": self.cases,
            "failures": list(self.failures),
            "elapsed": self.elapsed,
            "flags": list(self.flags),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AxiomReport":
        return cls(
            law=d["law"],
            cases=int(d["cases"]),
            failures=list(d.get("failures", [])),
            elapsed=float(d.get("elapsed", 0.0)),
            flags=list(d.get("flags", [])),
        )

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        if self.is_finding:
            verdict = "FINDING"
        extra = f" [{', '.join(self.flags)}]" if self.flags else ""
        return (
            f"{verdict:8s} {self.law}: cases={self.cases} "
            f"failures={len(self.failures)} ({self.elapsed:.2f}s){extra}"
        )
