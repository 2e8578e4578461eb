"""Workload definitions: the `comaj verify` argv units each workload runs.

A unit is one short CLI invocation.  Every unit passes ``--jobs 1`` so a
round measures one process doing the work, and R = {} is passed as its
own empty argv element.
"""

from __future__ import annotations

import itertools

PARTITIONS_4 = ("4", "3,1", "2,2", "2,1,1", "1,1,1,1")
PARTITIONS_5 = ("5", "4,1", "3,2", "3,1,1", "2,2,1", "2,1,1,1", "1,1,1,1,1")


def _subsets(n: int) -> list[str]:
    """Every subset of {1..n-1} as a comma list, the empty set first."""
    return [
        ",".join(str(i) for i in combo)
        for size in range(n)
        for combo in itertools.combinations(range(1, n), size)
    ]


def _formula() -> list[list[str]]:
    return [["verify", "kronecker", "--k", "3", "--lambda", lam, "--jobs", "1"]
            for lam in PARTITIONS_5]


def _series() -> list[list[str]]:
    finite = [["verify", "finite", "--k", "3", "--lambda", lam, "--jobs", "1"]
              for lam in PARTITIONS_4]
    quasi = [["verify", "quasi", "--n", "4", "--k", "3", "--r-set", R, "--jobs", "1"]
             for R in _subsets(4)]
    return finite + quasi


def _prop41(n: int, r: int) -> list[list[str]]:
    return [["verify", "prop41", "--n", str(n), "--r", str(r), "--bound", "3",
             "--r-set", R, "--jobs", "1"]
            for R in _subsets(n)]


# name -> units, in the canonical order the seed shuffles.
WORKLOADS = {
    "formula": _formula(),
    "series": _series(),
    "boxes": _prop41(4, 2),
    "reports": _prop41(5, 1),
}


# Per-layer metrics that must be nonzero in a traced run, because the layer
# does work on that workload at the seed commit.  A zero means a wrapper
# missed a binding site (or a later change retired the layer there, which
# then has to be recorded here first).
_EVERYWHERE = (
    "identities.verify.calls", "identities.verify.self_s",
    "qpoly.mul.calls", "qpoly.mul.term_pairs", "qpoly.mul.self_s",
    "qpoly.pochhammer.calls", "qpoly.pochhammer.self_s",
    "qpoly.digest.calls", "qpoly.digest.self_s",
    "perm.symmetric_group.self_s", "cli.main.self_s", "cli.stdout_bytes",
)
_BUCKETS = (
    "engine.reading_order.calls", "engine.reading_order.self_s",
    "engine.descents.calls", "engine.descents.self_s",
    "engine.seq_weight.calls", "engine.seq_weight.self_s",
    "identities.bucket_build.count", "identities.bucket_build.self_s",
    "identities.bucket_build.total_s", "identities.bucket_build.per_key",
)
NONZERO = {
    "formula": _EVERYWHERE + (
        "engine.comaj_components.calls", "engine.comaj_components.self_s",
        "identities.schur_comaj_polynomial.self_s",
        "identities.graded_multiplicity_character.self_s",
        "characters.character.calls", "characters.character.self_s",
        "tableaux.standard_tableaux.self_s",
    ),
    "series": _EVERYWHERE + (
        "engine.comaj_components.calls", "engine.comaj_components.self_s",
        "engine.labeled_tableau.calls", "engine.labeled_tableau.self_s",
        "qpoly.schur_principal_jt.self_s",
        "enumeration.fundamental_principal_series.calls",
        "enumeration.fundamental_principal_series.self_s",
        "enumeration.fundamental_principal_series.rss_growth_mb",
        "identities.schur_comaj_polynomial.self_s",
        "identities.labeled_tableau_polynomial.self_s",
        "identities.fundamental_comaj_polynomial.self_s",
        "tableaux.standard_tableaux.self_s",
    ),
    "boxes": _EVERYWHERE + _BUCKETS,
    "reports": _EVERYWHERE + _BUCKETS,
}

_QPOLY_SELF = ("qpoly.mul.self_s", "qpoly.digest.self_s", "qpoly.pochhammer.self_s",
               "qpoly.pochhammer_all.self_s", "qpoly.schur_principal_jt.self_s")
_ENGINE_SELF = ("engine.comaj_components.self_s", "engine.labeled_tableau.self_s",
                "engine.reading_order.self_s", "engine.descents.self_s",
                "engine.seq_weight.self_s")

# Layer shares of the traced verdict time measured when the benchmark was
# defined: (label, metrics summed, ">=" or "<", share).  They are reported
# beside each traced run so a change that moves work between layers shows;
# they are not a pass/fail condition.
SEED_SHARES = {
    "formula": [("engine.comaj_components", ("engine.comaj_components.self_s",), ">=", 0.90)],
    "series": [
        ("qpoly.mul + enumeration",
         ("qpoly.mul.self_s", "enumeration.fundamental_principal_series.self_s",
          "enumeration.schur_principal_by_tableaux.self_s"), ">=", 0.75),
        ("engine", _ENGINE_SELF, "<", 0.10),
    ],
    "boxes": [("identities.bucket_build", ("identities.bucket_build.total_s",), ">=", 0.90)],
    "reports": [
        ("qpoly", _QPOLY_SELF, ">=", 0.60),
        ("identities.bucket_build", ("identities.bucket_build.total_s",), "<", 0.10),
    ],
}
