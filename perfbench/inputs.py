"""Seeded benchmark inputs, drawn from the synthetic password ecosystem.

Everything a run feeds the program comes from
:class:`repro.datasets.synthetic.SyntheticEcosystem` and the seed, so
nothing is downloaded and the same seed gives the same inputs.  Each
workload names a language and the three sites the paper's setting
needs (Sec. IV): a large *base* site whose distinct passwords form the
base dictionary, the *training* site the meter is trained on and
serves, and a *third* site whose leak is scored in bulk.

Per phase the inputs are shaped for the layer they should load:

* ``train``: the training site's leak as a counted corpus file.
* ``bulk``: the third site's leak, shuffled; most of its passwords are
  distinct (0.6–0.7 times the parser's 65,536-entry LRU at full size),
  and the pool's workers start with empty parse caches, so every
  distinct password pays a cold parse.
* ``online``: a held-out sample of the training site, drawn with
  replacement in proportion to its counts (Zipf-shaped); its distinct
  count fits the LRU, so after warm-up parsing is cache hits.
* ``accept``: passwords from the third site, registered through
  ``/accept`` during the mixed phase.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Dict, List

from repro.datasets import SyntheticEcosystem, save_corpus

#: The parser's LRU capacity (``FuzzyPSMConfig.parse_cache_size``).
PARSE_CACHE = 65_536

WORKLOADS: Dict[str, Dict[str, str]] = {
    "zh": {"base": "tianya", "train": "csdn", "third": "dodonew"},
    "en": {"base": "rockyou", "train": "yahoo", "third": "battlefield"},
}


@dataclass(frozen=True)
class Sizes:
    base: int          # base-site entries (distinct ones form the dictionary)
    train: int         # training-corpus entries
    held: int          # held-out training-site entries behind /check
    third: int         # bulk-scored entries from the third site
    requests: int      # /check requests drawn from the held-out sample
    accepts: int       # /accept passwords
    guesses: int       # top-N enumeration size
    samples: int       # Monte Carlo draws per estimator


FULL = Sizes(base=50_000, train=15_000, held=3_000, third=60_000,
             requests=60_000, accepts=64, guesses=12_500, samples=5_000)
SMOKE = Sizes(base=3_000, train=3_000, held=600, third=5_000,
              requests=3_000, accepts=10, guesses=2_000, samples=500)


@dataclass
class Inputs:
    base: List[str]        # the base dictionary
    bulk: List[str]        # the bulk-scored stream
    requests: List[str]    # the /check stream
    accepts: List[str]     # passwords registered through /accept
    probes: List[str]      # held-out passwords the saved model must score


def _weighted_draws(counts: Dict[str, int], n: int,
                    rng: random.Random) -> List[str]:
    items = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    passwords = [password for password, _count in items]
    cumulative = list(itertools.accumulate(count for _p, count in items))
    total = cumulative[-1]
    return [
        passwords[bisect.bisect_right(cumulative, rng.random() * total)]
        for _ in range(n)
    ]


def make_inputs(workload: str, seed: int, sizes: Sizes,
                train_path: str) -> Inputs:
    """Generate a workload's inputs; writes the training corpus file."""
    sites = WORKLOADS[workload]
    ecosystem = SyntheticEcosystem(seed=seed)
    rng = random.Random(f"perfbench:{workload}:{seed}")
    base = ecosystem.generate(sites["base"], total=sizes.base, seed=1)
    train = ecosystem.generate(sites["train"], total=sizes.train, seed=2)
    held = ecosystem.generate(sites["train"], total=sizes.held, seed=3)
    third = ecosystem.generate(sites["third"], total=sizes.third, seed=4)
    save_corpus(train, train_path, fmt="counted")
    bulk = list(third.expand())
    rng.shuffle(bulk)
    return Inputs(
        base=base.unique_passwords(),
        bulk=bulk,
        requests=_weighted_draws(held.counts(), sizes.requests, rng),
        accepts=rng.sample(third.unique_passwords(), sizes.accepts),
        probes=rng.sample(held.unique_passwords(), min(500, held.unique)),
    )
