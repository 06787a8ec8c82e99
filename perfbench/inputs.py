"""Seeded input generation for every workload.

The program under test only ever receives what these functions return:
listing texts (classify-fresh, serve-replay) or extracted ACFGs
(train-epoch).  The same seed gives the same inputs; every generator
returns a digest and the vertex-count distribution so that two runs can
be shown to have measured the same inputs.

All listings follow the nine MSKCFG family profiles.  Two choices keep
the amount of work steady from seed to seed, so that a seed changes the
content of the inputs more than their size:

* families come in the Figure 7 proportions as exact quotas, not draws;
* each listing's function count is stratified over its profile's range
  (the j-th of ``c`` listings of a family takes the j-th of ``c`` evenly
  spaced quantiles), while everything else — blocks per function,
  loops, branches, instruction mix — is drawn from the seed.

Traffic listings draw from a seed space disjoint from the served model's
training corpus (:data:`TRAFFIC_SEED_BASE`), so no input repeats a
training sample.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.common import digest_texts, size_distribution

#: Offset that keeps traffic seeds apart from the training corpus seed.
TRAFFIC_SEED_BASE = 1_000_003

#: classify-fresh: one listing in this many is enlarged to the tail.
TAIL_EVERY = 100

#: Tail vertex-count targets span this range (Topology-Aware Hashing:
#: real CFGs run to thousands of blocks).
TAIL_BLOCKS = (1000, 3000)

#: Functions per enlarged listing; blocks per function set the size.
TAIL_FUNCTIONS = 20

#: Families whose profiles have no dispatch tables, so the block count
#: of an enlarged listing tracks its target.
TAIL_FAMILIES = ("Ramnit", "Lollipop", "Tracur", "Gatak", "Obfuscator.ACY", "Simda")


@dataclasses.dataclass
class Listing:
    name: str
    text: str
    label: int
    vertices: int = 0


def family_quota(count: int) -> List[str]:
    """``count`` families in Figure 7 proportions (largest remainder)."""
    from repro.datasets.mskcfg import MSKCFG_FAMILIES, MSKCFG_FAMILY_COUNTS

    total = sum(MSKCFG_FAMILY_COUNTS.values())
    exact = [count * MSKCFG_FAMILY_COUNTS[f] / total for f in MSKCFG_FAMILIES]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[:count - sum(counts)]:
        counts[i] += 1
    return [f for f, c in zip(MSKCFG_FAMILIES, counts) for _ in range(c)]


class Sampler:
    """Generates one seed's listings with stratified function counts."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        self._next_index = 0

    def _index(self) -> int:
        index, self._next_index = self._next_index, self._next_index + 1
        return index

    def batch(self, count: int) -> List[Listing]:
        """``count`` new listings, family quotas shuffled into a seeded order."""
        from repro.datasets.mskcfg import MSKCFG_PROFILES

        families = family_quota(count)
        totals = Counter(families)
        seen: Counter = Counter()
        planned = []
        for family in families:
            low, high = MSKCFG_PROFILES[family].num_functions
            position = (seen[family] + 0.5) / totals[family]
            planned.append((family, low + int(position * (high - low + 1))))
            seen[family] += 1
        order = self.rng.permutation(len(planned))
        return [self.listing(*planned[int(i)]) for i in order]

    def listing(self, family: str, functions: int, junk: Optional[float] = None,
                index: Optional[int] = None) -> Listing:
        """One listing; an earlier ``index`` with a ``junk`` level gives its variant."""
        from repro.datasets.mskcfg import MSKCFG_FAMILIES, MSKCFG_PROFILES
        from repro.datasets.synthetic_asm import ObfuscationKnobs, ProgramGenerator

        if index is None:
            index = self._index()
        label = MSKCFG_FAMILIES.index(family)
        profile = dataclasses.replace(
            MSKCFG_PROFILES[family], num_functions=(functions, functions)
        )
        name = f"{family}_{functions}_{index:05d}"
        if junk is not None:
            profile = ObfuscationKnobs(junk_probability=junk).apply(profile)
            name += f"~junk{junk:.2f}"
        rng = np.random.default_rng(
            np.random.SeedSequence([TRAFFIC_SEED_BASE + self.seed, label, index])
        )
        return Listing(name, ProgramGenerator(profile, rng).generate_listing(), label)

    def variant(self, base: Listing, extra_junk: float) -> Listing:
        """``base`` regenerated from its own seed stream with more junk code."""
        from repro.datasets.mskcfg import MSKCFG_PROFILES

        family, functions, index = base.name.rsplit("_", 2)
        junk = min(0.95, MSKCFG_PROFILES[family].junk_probability + extra_junk)
        return self.listing(family, int(functions), junk=junk, index=int(index))

    def tail(self, family: str, blocks: int) -> Listing:
        """One listing of ``family`` enlarged to about ``blocks`` blocks."""
        from repro.datasets.mskcfg import MSKCFG_FAMILIES, MSKCFG_PROFILES
        from repro.datasets.synthetic_asm import ProgramGenerator

        per_function = max(2, round(blocks / TAIL_FUNCTIONS))
        profile = dataclasses.replace(
            MSKCFG_PROFILES[family],
            num_functions=(TAIL_FUNCTIONS, TAIL_FUNCTIONS),
            blocks_per_function=(per_function, per_function),
        )
        index = self._index()
        label = MSKCFG_FAMILIES.index(family)
        rng = np.random.default_rng(
            np.random.SeedSequence([TRAFFIC_SEED_BASE + self.seed, label, index, blocks])
        )
        text = ProgramGenerator(profile, rng).generate_listing()
        return Listing(f"{family}_tail_{index:05d}", text, label)


def _vertex_counts(texts: Sequence[str]) -> List[int]:
    from repro.cfg.builder import build_cfg_from_text
    from repro.exceptions import MagicError

    counts = []
    for text in texts:
        try:
            counts.append(build_cfg_from_text(text).num_vertices)
        except MagicError:  # malformed listings count as zero-vertex inputs
            counts.append(0)
    return counts


def describe(
    texts: Sequence[str], labels: Sequence, seconds: float, vertices: Sequence[int]
) -> Dict:
    """Digest, size distribution and generation cost of a set of inputs."""
    return {
        "digest": digest_texts(list(texts) + list(labels)),
        "vertices": size_distribution(vertices),
        "generate_ms_per_sample": 1000.0 * seconds / max(1, len(texts)),
    }


# -- classify-fresh --------------------------------------------------------


def classify_pool(seed: int, size: int) -> Tuple[List[Listing], Dict]:
    """``size`` unique listings; one in :data:`TAIL_EVERY` is enlarged.

    Tail sizes are spread evenly over :data:`TAIL_BLOCKS`, largest
    included, so every seed carries the same tail; their positions in
    the pool are seeded.
    """
    started = time.perf_counter()
    sampler = Sampler(seed)
    tails = max(1, size // TAIL_EVERY)
    pool = sampler.batch(size - tails)
    low, high = TAIL_BLOCKS
    for position in range(tails):
        blocks = high if tails == 1 else low + (high - low) * position // (tails - 1)
        tail = sampler.tail(TAIL_FAMILIES[position % len(TAIL_FAMILIES)], blocks)
        pool.insert(int(sampler.rng.integers(len(pool) + 1)), tail)
    elapsed = time.perf_counter() - started
    for listing, count in zip(pool, _vertex_counts([s.text for s in pool])):
        listing.vertices = count
    info = describe(
        [s.text for s in pool], [s.label for s in pool], elapsed,
        [s.vertices for s in pool],
    )
    info.update(pool_size=size, tail_listings=tails, tail_blocks=list(TAIL_BLOCKS))
    return pool, info


# -- serve-replay ------------------------------------------------------------

#: Trace mix (shares of requests).  These shares, and the Zipf exponent
#: of the repeats, are assumptions, not measurements of real triage
#: traffic: they only encode that most requests repeat a listing the
#: service has seen (so the cache tiers answer them) while a fifth pay
#: the whole path.  Change them here and the run records the new mix.
SHARE_REPEAT = 0.70
SHARE_VARIANT = 0.05
SHARE_FRESH = 0.20
SHARE_MALFORMED = 0.05
ZIPF_EXPONENT = 1.1

#: Hot samples and their re-obfuscated variants follow the replay of
#: ``benchmarks/bench_similarity_cache.py``: six base samples, each with
#: four variants that add 0.1, 0.2, 0.3 and 0.4 to the family profile's
#: junk-code probability (capped at 0.95), inside the similarity tier's
#: calibrated corridor.
HOT_SET = 6
VARIANT_EXTRA_JUNK = (0.1, 0.2, 0.3, 0.4)

KINDS = ("repeat", "variant", "fresh", "malformed")


@dataclasses.dataclass
class Request:
    due: float            # seconds after the schedule starts
    phase: str            # "low" or "high"
    warmup: bool          # inside the phase's warm-up window
    kind: str             # repeat | variant | fresh | malformed
    name: str
    text: str
    label: Optional[int]  # generating family; None for malformed


def serve_trace(
    seed: int,
    phases: Sequence[Tuple[str, float, float, float]],
) -> Tuple[List[Request], Dict]:
    """Open-loop request schedule over ``phases``.

    Each phase is ``(name, rate_rps, seconds, warmup_seconds)`` and gets
    Poisson arrivals at its fixed rate: a fixed number of arrivals placed
    as sorted uniform points (a Poisson process conditioned on its
    count), so every seed offers the same load.  Request kinds follow the
    mix exactly: Zipf repeats of a hot set, re-obfuscated variants of hot
    samples (same program, more junk code — ``ObfuscationKnobs``), fresh
    listings, and malformed listings that must fail with 422 ``parse``.
    """
    started = time.perf_counter()
    sampler = Sampler(seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    shares = np.array([SHARE_REPEAT, SHARE_VARIANT, SHARE_FRESH, SHARE_MALFORMED])
    plans = []
    for phase, rate, seconds, warmup in phases:
        # Warm-up and measured windows get fixed counts of their own.
        windows = [(0.0, warmup, int(round(rate * warmup))),
                   (warmup, seconds, int(round(rate * (seconds - warmup))))]
        count = sum(window[2] for window in windows)
        quota = np.floor(shares * count).astype(int)
        quota[0] += count - quota.sum()
        plans.append((phase, seconds, warmup, windows, quota))
    # Zipf ranks go to the hot listings nearest the median size first, so
    # the few listings that take most repeats cost the same from seed to
    # seed.
    hot = sampler.batch(HOT_SET)
    middle = float(np.median([len(listing.text) for listing in hot]))
    hot.sort(key=lambda listing: abs(len(listing.text) - middle))
    fresh = iter(sampler.batch(int(sum(plan[4][2] for plan in plans))))
    ranks = np.arange(1, HOT_SET + 1, dtype=float) ** -ZIPF_EXPONENT
    zipf = ranks / ranks.sum()
    variants: Dict[Tuple[int, int], Listing] = {}
    requests: List[Request] = []
    offset = 0.0
    for phase, seconds, warmup, windows, quota in plans:
        dues = offset + np.concatenate([
            np.sort(rng.uniform(start, end, size=n)) for start, end, n in windows
        ])
        order = rng.permutation(np.repeat(np.arange(len(KINDS)), quota))
        for due, kind_index in zip(dues, order):
            due = float(due)
            kind = KINDS[int(kind_index)]
            if kind == "repeat":
                listing = hot[int(rng.choice(HOT_SET, p=zipf))]
            elif kind == "variant":
                key = (int(rng.choice(HOT_SET, p=zipf)),
                       int(rng.integers(len(VARIANT_EXTRA_JUNK))))
                if key not in variants:
                    variants[key] = sampler.variant(
                        hot[key[0]], VARIANT_EXTRA_JUNK[key[1]])
                listing = variants[key]
            elif kind == "fresh":
                listing = next(fresh)
            else:
                token = int(rng.integers(1 << 62))
                listing = Listing(
                    f"malformed_{token:x}",
                    f"; packed section, no code recovered ({token:x})\n"
                    "this listing defeats disassembly\n",
                    -1,
                )
            requests.append(Request(
                due=due, phase=phase, warmup=due < offset + warmup,
                kind=kind, name=listing.name, text=listing.text,
                label=None if kind == "malformed" else listing.label,
            ))
        offset += seconds
    elapsed = time.perf_counter() - started
    unique: Dict[str, Optional[int]] = {}
    for request in requests:
        unique.setdefault(request.text, request.label)
    vertices = _vertex_counts(list(unique))
    info = describe(list(unique), list(unique.values()), elapsed, vertices)
    info.update(
        unique_vertices=vertices,
        requests=len(requests),
        unique_listings=len(unique),
        schedule_digest=digest_texts((r.due, r.kind, r.name) for r in requests),
        mix={"repeat": SHARE_REPEAT, "variant": SHARE_VARIANT,
             "fresh": SHARE_FRESH, "malformed": SHARE_MALFORMED,
             "hot_set": HOT_SET, "zipf_exponent": ZIPF_EXPONENT,
             "variant_extra_junk": list(VARIANT_EXTRA_JUNK)},
    )
    return requests, info


# -- train-epoch -------------------------------------------------------------


def extract(samples: Sequence[Tuple[str, str, int]]) -> List:
    """ACFGs of ``(name, text, label)`` samples through the program's pipeline."""
    from repro.features.pipeline import AcfgPipeline

    report = AcfgPipeline().extract_from_texts(samples)
    if report.failures:
        raise RuntimeError(f"train-epoch corpus failed extraction: {report.failures[:3]}")
    return report.acfgs


def acfg_digest(acfgs: Sequence) -> str:
    return digest_texts(
        (a.name, a.label, a.attributes.tobytes(), a.adjacency.tobytes()) for a in acfgs
    )


def train_corpus(seed: int, total: int, validation_share: float):
    """Extracted MSKCFG-shaped ACFGs (no tail), split train/validation.

    Returns the two splits, the corpus description and the
    ``(name, text, label)`` samples they were extracted from.
    """
    started = time.perf_counter()
    listings = Sampler(seed).batch(total)
    generated = time.perf_counter() - started
    samples = [(listing.name, listing.text, listing.label) for listing in listings]
    acfgs = extract(samples)
    cut = int(round(len(acfgs) * (1.0 - validation_share)))
    info = {
        "digest": acfg_digest(acfgs),
        "vertices": size_distribution([a.num_vertices for a in acfgs]),
        "generate_ms_per_sample": 1000.0 * generated / len(listings),
        "train_graphs": cut,
        "validation_graphs": len(acfgs) - cut,
    }
    return acfgs[:cut], acfgs[cut:], info, samples
