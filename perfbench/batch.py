"""The two batch workloads and the checks on their reports.

`verify-all` is `nucleal report --budget 200`: every CLI suite.  A
report counts as failed when it fails and is not a documented finding;
each documented finding that does not reproduce counts as one more.

`exhaustive-rel` runs the star-category and nuclear-ideal checks on
partial injections between sets of size <= 3 and on relations between
sets of size <= 2, with a budget that lets every enumerable sub-law be
swept exhaustively.  The case count of each report is checked against a
closed-form count of the hom-sets involved, computed here from first
principles rather than by the program.
"""

from __future__ import annotations

from math import comb, factorial

VERIFY_BUDGET = 200
EXHAUSTIVE_BUDGET = 400_000
# (model module, largest set size) of the exhaustive sweeps
EXHAUSTIVE_MODELS = (("pinj", 3), ("finrel", 2))
# the one sub-law with no enumerable case stream; it samples this many cases
SAMPLED_SUBLAWS = {"star-laws": {"interchange": 500}, "nuclear": {}}

# (law prefix, required flag) of the documented findings of `verify-all`
FINDINGS = (
    ("theta-audit[CommMonoid([0, 1, 2, 3])", "documented-finding:theta-not-surjective"),
    ("stoch-mass-loss", "composite-total:0/1"),
    ("cjsl-higgs-rowe[", "non-distributive:2"),
)


def signature(reports) -> list[tuple]:
    """What a fixed (budget, seed) must reproduce: law, cases, failures, flags."""
    return [(r.law, r.cases, len(r.failures), tuple(r.flags)) for r in reports]


def verify_all_failures(reports) -> int:
    failed = sum(1 for r in reports if not r.ok and not r.is_finding)
    for law, flag in FINDINGS:
        if not any(r.law.startswith(law) and flag in r.flags for r in reports):
            failed += 1
    return failed


# -- closed-form case counts of the exhaustive sweeps ------------------------


def _pinj_homs(m: int, n: int) -> int:
    return sum(comb(m, k) * comb(n, k) * factorial(k) for k in range(min(m, n) + 1))


HOMS = {  # model -> (all morphisms m -> n, distinguished ones, states I -> m x n)
    "pinj": (_pinj_homs, lambda m, n: 1 + m * n, lambda m, n: 1 + m * n),
    "finrel": (lambda m, n: 2 ** (m * n),) * 3,
}


def expected_cases(model: str, max_size: int) -> dict[str, dict[str, int]]:
    """Cases per sub-law of the star-laws and nuclear checks, by enumeration."""
    hom, nuc, states = HOMS[model]
    sizes = range(max_size + 1)
    sum_h = sum(hom(a, b) for a in sizes for b in sizes)
    sum_n = sum(nuc(a, b) for a in sizes for b in sizes)
    out_h = {a: sum(hom(a, c) for c in sizes) for a in sizes}
    nat = sum(nuc(a, b) * out_h[a] * out_h[b] for a in sizes for b in sizes)
    star = {
        "unary": sum_h,
        "antihomomorphism": sum(
            hom(a, b) * hom(b, c) for a in sizes for b in sizes for c in sizes
        ),
        "identities": len(sizes),
        "unit-laws": sum_h,
        "associativity": sum(
            hom(a, b) * hom(b, c) * hom(c, d)
            for a in sizes for b in sizes for c in sizes for d in sizes
        ),
        "tensor-star": sum_h * sum_h,
        "symmetry": sum_h * sum_h,
        "scalar-star": hom(1, 1),
    }
    nuclear = {
        "closure-compose": nat,
        "closure-star-conj": sum_n,
        "closure-tensor": sum_n * sum_n,
        "transpose-roundtrip": sum_n,
        "transpose-onto": sum(states(a, b) for a in sizes for b in sizes),
        "transpose-tensor": sum_n * sum_n,
        "transpose-conj": sum_n,
        "transpose-naturality": nat,
        "compactness": sum(
            nuc(a, b) * nuc(b, c) for a in sizes for b in sizes for c in sizes
        ),
    }
    return {"star-laws": star, "nuclear": nuclear}


def exhaustive_ok(report, check: str, expected: dict[str, int]) -> bool:
    """The report passed, swept every enumerable sub-law, and ran exactly
    the enumerated cases plus the sampled ones."""
    want_flags = {f"exhaustive:{name}" for name in expected}
    total = sum(expected.values()) + sum(SAMPLED_SUBLAWS[check].values())
    return report.ok and want_flags <= set(report.flags) and report.cases == total
