"""Check reports and deterministic serialization.

JSON output is byte-stable for fixed inputs: keys are sorted, floats are
rendered with fixed 12-digit scientific notation (a non-finite one as null),
and complex numbers are emitted as two-element [re, im] arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

PASS = "pass"
FAIL = "fail"
UNKNOWN = "unknown"
SKIP = "skip"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INCOMPLETE = 3


@dataclass
class Verdict:
    claim: str
    status: str
    residual: float | None = None
    witness: object = None
    detail: str = ""


@dataclass
class CheckReport:
    """Per-subject verdict list; every failing verdict carries a witness."""

    subject: str
    verdicts: list[Verdict] = field(default_factory=list)
    caveats: list[str] = field(default_factory=list)

    def add(self, claim: str, ok, residual: float | None = None, witness=None, detail: str = ""):
        """Record a verdict; ok may be True/False or None for unknown."""
        status = UNKNOWN if ok is None else PASS if ok else FAIL
        if status == FAIL and witness is None:
            witness = {"claim": claim, "detail": detail or "no further witness data"}
        self.verdicts.append(Verdict(claim=claim, status=status, residual=residual, witness=witness, detail=detail))

    def skip(self, claim: str, detail: str = ""):
        self.verdicts.append(Verdict(claim=claim, status=SKIP, detail=detail))

    def caveat(self, text: str):
        if text not in self.caveats:
            self.caveats.append(text)

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, UNKNOWN: 0, SKIP: 0}
        for v in self.verdicts:
            out[v.status] += 1
        return out

    @property
    def all_pass(self) -> bool:
        return all(v.status in (PASS, SKIP) for v in self.verdicts)

    def exit_code(self) -> int:
        counts = self.counts()
        if counts[FAIL]:
            return EXIT_FAILED
        if counts[UNKNOWN]:
            return EXIT_INCOMPLETE
        return EXIT_OK

    def sorted_verdicts(self) -> list[Verdict]:
        return sorted(self.verdicts, key=lambda v: v.claim)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "caveats": sorted(self.caveats),
            "summary": self.counts(),
            "verdicts": [dict(vars(v)) for v in self.sorted_verdicts()],
        }

    def to_text(self) -> str:
        lines = [f"subject: {self.subject}"]
        for v in self.sorted_verdicts():
            mark = {PASS: "PASS", FAIL: "FAIL", UNKNOWN: "????", SKIP: "skip"}[v.status]
            res = f" residual={v.residual:.3e}" if v.residual is not None else ""
            det = f" ({v.detail})" if v.detail else ""
            lines.append(f"  [{mark}] {v.claim}{res}{det}")
        counts = self.counts()
        lines.append(
            f"summary: {counts[PASS]} pass, {counts[FAIL]} fail, "
            f"{counts[UNKNOWN]} unknown, {counts[SKIP]} skipped"
        )
        for c in sorted(self.caveats):
            lines.append(f"caveat: {c}")
        return "\n".join(lines)


# a dict with exactly a verdict record's keys (``CheckReport.to_dict``), the bulk of a report, is one format
_RECORD_KEYS = {"claim", "detail", "residual", "status", "witness"}
_RECORD_FIELDS = itemgetter(*sorted(_RECORD_KEYS))
_RECORD = '{"claim":%s,"detail":%s,"residual":%s,"status":%s,"witness":%s}'


def _text(value) -> str:
    """The JSON text of value: numbers, numpy types and objects with ``to_dict`` are normalized
    on the way, strings escaped as ``json.dumps`` escapes them, a non-finite float written as null."""
    if value is None:
        return "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12e") if math.isfinite(value) else "null"
    if isinstance(value, dict):
        if value.keys() == _RECORD_KEYS:
            return _RECORD % tuple(map(_text, _RECORD_FIELDS(value)))
        return "{" + ",".join(encode_basestring_ascii(str(key)) + ":" + _text(value[key])
                              for key in sorted(value, key=str)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_text, value)) + "]"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (complex, np.complexfloating)):
        return _text([float(value.real), float(value.imag)])
    if isinstance(value, np.ndarray):
        return _text(value.tolist())
    if hasattr(value, "to_dict"):
        return _text(value.to_dict())
    return encode_basestring_ascii(str(value))


def dump_json(data) -> str:
    """Deterministic JSON text: sorted keys, fixed 12-digit float formatting, in one pass."""
    return _text(data)
