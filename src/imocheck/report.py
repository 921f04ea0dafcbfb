"""Machine-readable outcome records for individual lemma/claim checks.

Every check in the suite produces one ClaimReport.  The record line format
is the stable wire contract of the CLI:

    CLAIM <id> <key>=<value> ... outcome=<pass|fail>

Tokens are space-separated, so no key or value may contain whitespace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of one checked claim.

    On failure the witness carries a counterexample that can be re-checked
    independently (indices, offending values, rendered rationals or rects).
    """

    claim_id: str
    params: dict[str, int] = field(default_factory=dict)
    outcome: bool = False
    witness: tuple = ()
    steps: int = 0

    def record_line(self) -> str:
        tokens = ["CLAIM", self.claim_id]
        tokens += [f"{k}={v}" for k, v in self.params.items()]
        tokens.append(f"steps={self.steps}")
        if self.witness:
            rendered = ";".join(str(w).replace(" ", "") for w in self.witness)
            tokens.append(f"witness={rendered}")
        tokens.append("outcome=" + ("pass" if self.outcome else "fail"))
        return " ".join(tokens)


def passed(claim_id: str, params: dict[str, int] | None = None,
           steps: int = 0) -> ClaimReport:
    return ClaimReport(claim_id, params or {}, True, (), steps)


def failed(claim_id: str, params: dict[str, int] | None = None,
           witness: tuple = (), steps: int = 0) -> ClaimReport:
    return ClaimReport(claim_id, params or {}, False, witness, steps)


def first_failure(claim_id: str, params: dict[str, int],
                  witnesses: Iterable[tuple | None]) -> ClaimReport:
    """The report of a sweep: failed at the first witness, else passed.

    ``witnesses`` yields None for each instance that holds and a witness
    tuple for one that fails; the sweep stops there.  steps counts the
    instances that held: all of them on a pass, those before the failure
    on a fail.
    """
    checked = 0
    for w in witnesses:
        if w is not None:
            return failed(claim_id, params, w, checked)
        checked += 1
    return passed(claim_id, params, steps=checked)
