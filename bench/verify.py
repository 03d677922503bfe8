"""Artifact checks behind the benchmark's failure count.

``problems`` applies checks that hold for any correct engine: the exit code,
no traceback, an artifact that parses, the per-class count identities
(counts sum to q^k, sum of r * count is n * q^(k-1) when k >= 1), census
word totals summing to q^(k+ell), |G| characters within their degree bound,
and ``"pass": true`` wherever the artifact carries a verdict.

``digest`` reduces an artifact to its parsed counts, class representatives
and verdicts, so that the seeds recorded in ``expected.json`` can be compared
with the record.  It compares parsed content, not bytes: a new deterministic
field in an artifact does not change the digest.
"""

from __future__ import annotations

import hashlib
import json
import math

from workloads import Job


def _count_problems(counts: dict, q: int, k: int, n: int, what: str) -> list[str]:
    """Counts of one class (r -> count, as strings) against the two identities."""
    out = []
    pairs = [(int(r), int(c)) for r, c in counts.items()]
    total = sum(c for _, c in pairs)
    if total != q ** k:
        out.append(f"{what}: counts sum to {total}, not q^k = {q ** k}")
    if k >= 1:
        first = sum(r * c for r, c in pairs)
        if first != n * q ** (k - 1):
            out.append(f"{what}: sum r*count = {first}, not n*q^(k-1) = {n * q ** (k - 1)}")
    return out


def _kind(counts: dict, k: int, ell: int) -> str:
    """Deep-hole / ordinary / neither from a distance row, as the CLI defines them."""
    have = {int(r) for r, c in counts.items() if int(c)}
    if not have & set(range(k + 1, k + ell + 1)):
        return "deep-hole"
    return "ordinary" if k + ell in have else "neither"


def _verdict_problems(data: dict) -> list[str]:
    out = [] if data.get("pass") is True else ["verdict is not pass"]
    failed = [c.get("name", c) for c in data.get("checks", []) if c.get("pass") is not True]
    if failed:
        out.append(f"{len(failed)} failed checks, first {failed[0]}")
    return out


def _exact_dist(e: dict, data: dict) -> list[str]:
    out = []
    if len(data["classes"]) != e["classes"] or len(data["distributions"]) != e["classes"]:
        out.append(f"expected {e['classes']} classes")
    for d in data["distributions"]:
        if int(d["total"]) != e["q"] ** e["k"]:
            out.append(f"class {d['eps']}: total {d['total']}")
        out += _count_problems(d["counts"], e["q"], e["k"], e["n"], f"class {d['eps']}")
    return out


def _approx(e: dict, data: dict) -> list[str]:
    per_class: dict[int, dict] = {}
    for row in data["table"]:
        per_class.setdefault(row["eps"], {})[str(row["r"])] = row["count"]
    out = [] if sorted(per_class) == list(range(e["classes"])) else [f"expected {e['classes']} classes"]
    for eps, counts in per_class.items():
        out += _count_problems(counts, e["q"], e["k"], e["n"], f"class {eps}")
    return out


def _rs(e: dict, data: dict) -> list[str]:
    q, k, ell = e["q"], e["k"], e["ell"]
    if "row" in data:
        counts = data["row"]["counts"]
        out = _count_problems(counts, q, k, q, "row")
        if data["kind"] != _kind(counts, k, ell):
            out.append(f"row kind {data['kind']} does not match its counts")
        return out
    census = data["census"]
    out = [] if len(census["classes"]) == q ** ell else [f"expected {q ** ell} classes"]
    tallies = {"deep-hole": 0, "ordinary": 0, "neither": 0}
    for cls in census["classes"]:
        out += _count_problems(cls["counts"], q, k, q, f"class {cls['eps']}")
        if cls["kind"] != _kind(cls["counts"], k, ell):
            out.append(f"class {cls['eps']}: kind does not match its counts")
        tallies[cls["kind"]] += q ** k
    totals = census["word_totals"]
    if sum(totals.values()) != q ** (k + ell):
        out.append(f"word totals sum to {sum(totals.values())}, not q^(k+ell)")
    if totals != tallies:
        out.append("word totals do not match the class kinds")
    return out


def _weil(e: dict, data: dict) -> list[str]:
    chars = data["characters"]
    out = [] if len(chars) == e["classes"] == math.prod(data["orders"]) else [
        f"expected {e['classes']} characters"
    ]
    for ch in chars:
        if not ch.get("trivial") and ch["degree"] > ch["degree_bound"]:
            out.append(f"character {ch['chi']}: degree above its bound")
    return out + _verdict_problems(data)


def _kernels(e: dict, data: dict) -> list[str]:
    return [] if data["value"] == str(e["value"]) else [f"value {data['value']} != {e['value']}"]


_CHECKS = {
    "exact-dist": _exact_dist,
    "approx": _approx,
    "rs": _rs,
    "weil": _weil,
    "moments-check": lambda e, d: _verdict_problems(d),
    "series-check": lambda e, d: _verdict_problems(d),
    "bounds-check": lambda e, d: _verdict_problems(d),
    "kernels": _kernels,
}


def problems(job: Job, exit_code: int, stderr: str, artifact: str) -> list[str]:
    """Everything wrong with one job's outcome; empty when it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    try:
        data = json.loads(artifact)
    except ValueError:
        data = None
    if not isinstance(data, dict):
        return ["artifact does not parse"]
    try:
        return _CHECKS[job.subcommand](job.expect, data)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"artifact lacks an expected field: {exc!r}"]


def _content(subcommand: str, data: dict):
    """The parsed counts, representatives and verdicts of an artifact."""
    if subcommand == "exact-dist":
        return [data["classes"], [d["counts"] for d in data["distributions"]]]
    if subcommand == "approx":
        return [[row["eps"], row["r"], row["count"]] for row in data["table"]]
    if subcommand == "rs":
        if "row" in data:
            return [data["row"]["counts"], data["kind"]]
        census = data["census"]
        return [census["classes"], census["word_totals"]]
    if subcommand == "weil":
        return [
            data["orders"], data["pass"],
            [[c["chi"], c["exponents"], c.get("trivial", False), c.get("degree"), c.get("degree_bound")]
             for c in data["characters"]],
        ]
    if subcommand == "moments-check":
        return [data["pass"], [[c["k"], c["eps"], c["j"], c["moment"], c["expected"], c["pass"]]
                               for c in data["checks"]]]
    if subcommand in ("series-check", "bounds-check"):
        return [data["pass"], [[c["name"], c["pass"]] for c in data["checks"]]]
    return data["value"]


def digest(job: Job, artifact: str) -> str:
    """Short hash of an artifact's parsed content (see ``_content``)."""
    content = _content(job.subcommand, json.loads(artifact))
    blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
