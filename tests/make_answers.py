"""Write the answer corpus ``tests/answers.json`` from seeds alone.

    PYTHONPATH=src python tests/make_answers.py

The corpus holds exact answers of the package on seeded inputs:

- ``tau``: tau(a^t) for 30 seeded ideals per ring of ``rings.TEST_RINGS``,
  each of 1 to 4 points of degree <= 5, at every t of ``TS``;
- ``socle`` and ``root``: the socle oracle at (qmax 4, p 2) and at
  (qmax 16, p 3), as ``socle_toric`` and ``crosscheck_orthant`` run it, and
  the root oracle at qmax 16, on the first ``ORACLE_IDEALS`` ideals per
  ring at every t of ``ORACLE_TS``; an oracle that raises is recorded by
  its error's name;
- ``campaigns``: the report of every campaign at seeds 0 and 1, without
  its wall time.

``test_answers.py`` recomputes every entry and compares it exactly, so an
entry changes only with the program's answers.  A change that is meant
names each changed entry and shows the new value right by a reference
that shares no code with the route.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

from rings import TEST_RINGS

from tauideal.campaigns import CAMPAIGNS, run_campaign
from tauideal.enumeration import lattice_points_upto
from tauideal.errors import TauIdealError
from tauideal.frobenius import frobenius_root_tau_oracle, tau_socle_oracle
from tauideal.ideals import minimalize
from tauideal.tau import tau

PATH = Path(__file__).with_name("answers.json")
SEED = 2626
IDEALS = 30
# t just below 3 has the ten-digit denominator 10^9
TS = (Fraction(1, 2), Fraction(1), Fraction(5, 3), Fraction(5, 2), Fraction(3 * 10**9 - 1, 10**9))
ORACLE_IDEALS = 10
ORACLE_TS = (Fraction(1, 2), Fraction(1), Fraction(5, 3))
SOCLE_SETTINGS = ((4, 2), (16, 3))
ROOT_QMAX = 16
CAMPAIGN_SEEDS = (0, 1)


def seeded_ideals(ring, rng: Random, count: int):
    """count ideals, each of 1 to 4 distinct points of degree 1 to 5."""
    pool = lattice_points_upto(ring, 5)[1:]
    return [
        minimalize(ring, rng.sample(pool, rng.randint(1, min(4, len(pool)))))
        for _ in range(count)
    ]


def _gens(ideal) -> list:
    return [list(g) for g in ideal.gens]


def _oracle(call) -> list | str:
    """The generators call() returns, or the name of the error it raises."""
    try:
        return _gens(call())
    except TauIdealError as exc:
        return type(exc).__name__


def compute() -> dict:
    """Every entry of the corpus, in a fixed order."""
    rings, taus, socles, roots = [], [], [], []
    for i, ring in enumerate(TEST_RINGS):
        rings.append([list(n) for n in ring.sigma.rays])
        for j, a in enumerate(seeded_ideals(ring, Random(SEED + i), IDEALS)):
            for t in TS:
                taus.append([i, _gens(a), str(t), _gens(tau(ring, a, t))])
            if j >= ORACLE_IDEALS:
                continue
            for t in ORACLE_TS:
                for qmax, p in SOCLE_SETTINGS:
                    got = _oracle(lambda: tau_socle_oracle(ring, a, t, qmax, p).ideal)
                    socles.append([i, _gens(a), str(t), qmax, p, got])
                got = _oracle(lambda: frobenius_root_tau_oracle(ring, a, t, ROOT_QMAX))
                roots.append([i, _gens(a), str(t), ROOT_QMAX, got])
    campaigns = []
    for name in CAMPAIGNS:
        for seed in CAMPAIGN_SEEDS:
            report = run_campaign(name, seed).to_dict()
            del report["wall_ms"]
            campaigns.append([name, seed, report])
    return {"rings": rings, "tau": taus, "socle": socles, "root": roots, "campaigns": campaigns}


def render(corpus: dict) -> str:
    """The corpus as JSON, one entry a line, so a changed answer is one
    changed line."""
    parts = []
    for key, entries in corpus.items():
        lines = ",\n".join("    " + json.dumps(e, sort_keys=True) for e in entries)
        parts.append(f'  "{key}": [\n{lines}\n  ]')
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    PATH.write_text(render(compute()))
    print(f"wrote {PATH}", file=sys.stderr)
