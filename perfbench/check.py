"""Output checks for the tpw benchmark.

An operation counts as failed when it raises, exits nonzero, returns a
``fail`` or ``unknown`` verdict, returns a corpus tag that does not match, or
returns a closed-form fact that does not match.  Each check returns a list of
problems; an empty list means the operation is correct.
"""

from __future__ import annotations

import json

from inputs import rebased_id

# Expected product verdicts of the eight built-in corpus triples, as the
# corpus tags state them.  Kept here so that the benchmark, not the program,
# says what is right.
EXPECTED_TAGS = {
    "c-c-id": {"weakly_amenable": True, "char_amenable": True, "char_inner_amenable": True},
    "c-c-zero": {"weakly_amenable": True, "char_amenable": True, "char_inner_amenable": True},
    "c2-c-lau": {"weakly_amenable": True, "char_amenable": True, "char_inner_amenable": True},
    "m2-cz2-zero": {"weakly_amenable": True, "char_amenable": True, "char_inner_amenable": True},
    "ut2-c2-diag": {"weakly_amenable": True, "char_amenable": False, "char_inner_amenable": True},
    "row2-c-zero": {"weakly_amenable": True, "char_amenable": False, "char_inner_amenable": False},
    "null1-c-zero": {"weakly_amenable": False, "char_amenable": False, "char_inner_amenable": True},
    "c2-c2-swap": {"weakly_amenable": True, "char_amenable": True, "char_inner_amenable": True},
}


def closed_form(family: str, k: int) -> dict:
    """Closed-form facts of C_k (C^k), T_k (upper triangular) and M_k (full matrices)."""
    if family == "C":
        return {"characters": k}
    if family == "M":
        return {"characters": 0, "derivations": k * k - 1, "inner": k * k - 1}
    if family == "T":
        return {"characters": k, "derivations": k * (k - 1) // 2, "inner": k * (k - 1) // 2}
    raise ValueError(f"unknown family {family!r}")


# a parsed output without the expected keys or types
SHAPE_ERRORS = (KeyError, TypeError, AttributeError)


def _parse(text: str):
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def _verdict_problems(report: dict, where: str) -> list[str]:
    return [
        f"{where}: {v['claim']} is {v['status']}"
        for v in report["verdicts"]
        if v["status"] in ("fail", "unknown")
    ]


def _details(report: dict) -> dict[str, str]:
    return {v["claim"]: v["detail"] for v in report["verdicts"]}


def check_corpus(text: str, expected=EXPECTED_TAGS) -> tuple[list[str], int]:
    """Check a ``corpus run --format json`` output that covers every built-in
    entry and its rebased copy; returns (problems, triples verified)."""
    data, problems = _parse(text)
    if problems:
        return problems, 0
    try:
        reports = {e["id"]: e["report"] for e in data["entries"]}
        wanted = {**expected, **{rebased_id(i): tags for i, tags in expected.items()}}
        for entry_id, report in sorted(reports.items()):
            problems += _verdict_problems(report, entry_id)
        for entry_id, tags in sorted(wanted.items()):
            if entry_id not in reports:
                problems.append(f"{entry_id}: missing from the output")
                continue
            details = _details(reports[entry_id])
            for key, want in sorted(tags.items()):
                got = details.get(f"10-corpus-tags/{key}")
                if got != f"expected {want}, computed {want}":
                    problems.append(f"{entry_id}: tag {key} expected {want}, got {got!r}")
    except SHAPE_ERRORS as exc:
        return [f"unexpected output shape: {exc!r}"], 0
    return problems, len(reports)


def check_ladder(text: str, k: int) -> list[str]:
    """Check a ``verify_theorems`` report on C_k x C_k: all pass, k + k characters."""
    report, problems = _parse(text)
    if problems:
        return problems
    try:
        problems = _verdict_problems(report, f"C{k} x C{k}")
        details = _details(report)
    except SHAPE_ERRORS as exc:
        return [f"unexpected output shape: {exc!r}"]
    chars = closed_form("C", k)["characters"]
    want = {
        "05-characters/lifted-family-verified": f"{chars} characters lifted from the first factor",
        "05-characters/pure-family-verified": f"{chars} characters supported on the second factor",
        "05-characters/decomposition-exhaustive": f"enumeration found {2 * chars} characters",
    }
    for claim, detail in want.items():
        if details.get(claim) != detail:
            problems.append(f"C{k} x C{k}: {claim} says {details.get(claim)!r}, expected {detail!r}")
    return problems


def check_weak_amen(text: str, family: str, k: int) -> list[str]:
    """Check a ``check weak-amen --format json`` output against the closed form."""
    data, problems = _parse(text)
    if problems:
        return problems
    facts = closed_form(family, k)
    try:
        got = (data["weakly_amenable"], data["dim_derivations"], data["dim_inner"])
    except SHAPE_ERRORS as exc:
        return [f"unexpected output shape: {exc!r}"]
    want = (facts["derivations"] == facts["inner"], facts["derivations"], facts["inner"])
    if got != want:
        problems.append(f"{family}{k}: (weakly amenable, derivations, inner) = {got}, expected {want}")
    return problems


def check_characters(text: str, family: str, k: int) -> list[str]:
    """Check a ``characters --format json`` output against the closed form."""
    data, problems = _parse(text)
    if problems:
        return problems
    want = closed_form(family, k)["characters"]
    try:
        got = (data["count"], data["complete"])
    except SHAPE_ERRORS as exc:
        return [f"unexpected output shape: {exc!r}"]
    if got != (want, True):
        problems.append(f"{family}{k}: {got[0]} characters (complete={got[1]}), expected {want}")
    return problems
