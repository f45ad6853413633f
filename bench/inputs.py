"""Seeded inputs for the benchmark workloads.

The same (workload, seed) pair always gives the same inputs. Only values
that do not change the amount of work are drawn freely: quadrature
evaluation counts do not depend on the twist, and are the same for every
rotation angle in ANGLE_RANGE. The collar a' does change them, so a run
draws one a' from every band of COLLAR_BANDS and gives band k to the
same query on every seed.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

TWIST_RANGE = (0.1, 0.9)
# eta and the Dirichlet variant take 378 integrand evaluations everywhere
# in this range of rotation angles (210 to 462 elsewhere in (0, pi]).
ANGLE_RANGE = (0.55, 0.85)
# Log-spaced bands over [0.05, 5]. The first band holds the small collars
# at which the vanishing term has not collapsed yet.
COLLAR_BANDS = tuple((0.05 * 100.0 ** (k / 8), 0.05 * 100.0 ** ((k + 1) / 8))
                     for k in range(8))


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def twist(rng: random.Random) -> float:
    return rng.uniform(*TWIST_RANGE)


def angle(rng: random.Random) -> float:
    return rng.uniform(*ANGLE_RANGE)


def collars(rng: random.Random) -> list[float]:
    """One a' per band, log-uniform inside the band, in band order."""
    return [math.exp(rng.uniform(math.log(lo), math.log(hi)))
            for lo, hi in COLLAR_BANDS]


def write_circle(path: Path, twist_value: float, angle_value: float,
                 n_max: int) -> None:
    """Write the twisted circle in cyleta's spectrum JSON format.

    The records come in mode order, not sorted by |lambda|, and carry no
    growth metadata, so the loader sorts and fits them. truncated_at is
    explicit: the list is complete below n_max + 1 - twist.
    """
    data = [{"lambda": n + twist_value, "multiplicity": 1,
             "trace": [math.cos(n * angle_value), -math.sin(n * angle_value)]}
            for n in range(-n_max, n_max + 1)]
    doc = {"data": data, "truncated_at": n_max + 1 - twist_value}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
