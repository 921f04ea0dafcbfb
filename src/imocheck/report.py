"""Machine-readable outcome records for individual lemma/claim checks.

Every claim produces one ClaimReport, and first_failure is the one place
that builds it: a claim is a sweep over instances, each of which holds or
gives a witness.  steps is the number of instances that held before the
first failure (all of them on a pass).  The record line format is the
stable wire contract of the CLI:

    CLAIM <id> <key>=<value> ... outcome=<pass|fail>

Tokens are space-separated, so no key or value may contain whitespace.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple


class ClaimReport(NamedTuple):
    """Outcome of one checked claim.

    On failure the witness carries a counterexample that can be re-checked
    independently (indices, offending values, rendered rationals or rects).
    """

    claim_id: str
    params: dict[str, int]
    outcome: bool
    witness: tuple
    steps: int

    def record_line(self) -> str:
        tokens = ["CLAIM", self.claim_id]
        tokens += [f"{k}={v}" for k, v in self.params.items()]
        tokens.append(f"steps={self.steps}")
        if self.witness:
            rendered = ";".join(str(w).replace(" ", "") for w in self.witness)
            tokens.append(f"witness={rendered}")
        tokens.append("outcome=" + ("pass" if self.outcome else "fail"))
        return " ".join(tokens)


def first_failure(claim_id: str, params: dict[str, int],
                  witnesses: Iterable[tuple | None]) -> ClaimReport:
    """The report of a sweep: failed at the first witness, else passed.

    ``witnesses`` yields None for each instance that holds and a witness
    tuple for one that fails; the sweep stops there.  steps counts the
    instances that held: all of them on a pass, those before the failure
    on a fail.
    """
    checked = 0
    for checked, w in enumerate(witnesses, 1):
        if w is not None:
            return ClaimReport(claim_id, params, False, w, checked - 1)
    return ClaimReport(claim_id, params, True, (), checked)
