"""Synthetic MSKCFG corpus (Section V-A, Figure 7).

The real MSKCFG dataset contains 10,868 ``.asm`` listings from the 2015
Microsoft Malware Classification Challenge, spanning nine families with
the (imbalanced) distribution of Figure 7.  This module generates a
corpus with:

* the same nine family names,
* the same relative family proportions (so Figure 7's shape reproduces),
* family-conditioned structural/instruction-mix signatures (see
  :mod:`repro.datasets.synthetic_asm`), with deliberately related
  profiles for the pairs the paper finds confusable
  (Ramnit <-> Obfuscator.ACY, Kelihos_ver1 <-> Kelihos_ver3).

The generated listings flow through the *full* MAGIC front end: parse ->
tag -> build CFG -> extract Table I attributes.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.datasets.loader import MalwareDataset
from repro.datasets.synthetic_asm import (
    FamilyProfile,
    ObfuscationKnobs,
    ProgramGenerator,
)
from repro.exceptions import DatasetError
from repro.features.pipeline import AcfgPipeline

#: Families and their sample counts in the real corpus (Figure 7).
MSKCFG_FAMILY_COUNTS: Dict[str, int] = {
    "Ramnit": 1541,
    "Lollipop": 2478,
    "Kelihos_ver3": 2942,
    "Vundo": 475,
    "Simda": 42,
    "Tracur": 751,
    "Kelihos_ver1": 398,
    "Obfuscator.ACY": 1228,
    "Gatak": 1013,
}

MSKCFG_FAMILIES: List[str] = list(MSKCFG_FAMILY_COUNTS)

#: Structural profiles per family.  Related families get related profiles
#: on purpose: Kelihos_ver1 is a scaled-down ver3; Obfuscator.ACY reuses
#: Ramnit-like structure under heavy junk-code obfuscation.
MSKCFG_PROFILES: Dict[str, FamilyProfile] = {
    "Ramnit": FamilyProfile(
        name="Ramnit",
        num_functions=(4, 8),
        blocks_per_function=(4, 9),
        block_length=(3, 9),
        loop_probability=0.30,
        branch_probability=0.40,
        call_probability=0.20,
        junk_probability=0.05,
        weight_mov=3.0, weight_arith=1.5, weight_stack=1.5,
        weight_compare=1.0, weight_string=0.3,
        numeric_constant_rate=0.3,
    ),
    "Lollipop": FamilyProfile(
        name="Lollipop",
        num_functions=(8, 14),
        blocks_per_function=(5, 12),
        block_length=(4, 12),
        loop_probability=0.15,
        branch_probability=0.55,
        call_probability=0.35,
        weight_mov=4.0, weight_arith=1.5, weight_stack=2.5,
        weight_compare=1.5, weight_string=0.1,
        numeric_constant_rate=0.6,
    ),
    "Kelihos_ver3": FamilyProfile(
        name="Kelihos_ver3",
        num_functions=(6, 10),
        blocks_per_function=(8, 16),
        block_length=(3, 8),
        loop_probability=0.35,
        branch_probability=0.30,
        call_probability=0.15,
        dispatch_probability=0.35,
        dispatch_fanout=(4, 8),
        weight_mov=2.5, weight_arith=2.0, weight_stack=1.0,
        weight_compare=2.0, weight_string=0.2,
        numeric_constant_rate=0.5,
    ),
    "Vundo": FamilyProfile(
        name="Vundo",
        num_functions=(2, 4),
        blocks_per_function=(3, 6),
        block_length=(10, 20),
        loop_probability=0.60,
        branch_probability=0.10,
        call_probability=0.05,
        weight_mov=1.0, weight_arith=5.5, weight_stack=0.5,
        weight_compare=0.6, weight_string=0.1,
        numeric_constant_rate=0.85,
    ),
    "Simda": FamilyProfile(
        name="Simda",
        num_functions=(2, 4),
        blocks_per_function=(2, 5),
        block_length=(2, 6),
        loop_probability=0.10,
        branch_probability=0.20,
        call_probability=0.45,
        weight_mov=2.0, weight_arith=1.0, weight_stack=3.0,
        weight_compare=0.8, weight_string=0.1,
        numeric_constant_rate=0.3,
    ),
    "Tracur": FamilyProfile(
        name="Tracur",
        num_functions=(4, 7),
        blocks_per_function=(4, 8),
        block_length=(4, 10),
        loop_probability=0.20,
        branch_probability=0.45,
        call_probability=0.15,
        weight_mov=3.5, weight_arith=0.8, weight_stack=1.0,
        weight_compare=1.8, weight_string=3.0,
        numeric_constant_rate=0.55,
    ),
    "Kelihos_ver1": FamilyProfile(
        name="Kelihos_ver1",
        num_functions=(2, 4),
        blocks_per_function=(5, 9),
        block_length=(2, 5),
        loop_probability=0.32,
        branch_probability=0.30,
        call_probability=0.12,
        dispatch_probability=0.18,
        dispatch_fanout=(3, 5),
        data_blocks=(1, 3),
        weight_mov=2.5, weight_arith=2.0, weight_stack=1.0,
        weight_compare=1.7, weight_string=0.8,
        numeric_constant_rate=0.25,
    ),
    "Obfuscator.ACY": FamilyProfile(
        name="Obfuscator.ACY",
        num_functions=(4, 8),
        blocks_per_function=(4, 9),
        block_length=(3, 9),
        loop_probability=0.28,
        branch_probability=0.42,
        call_probability=0.18,
        junk_probability=0.60,
        weight_mov=2.5, weight_arith=3.5, weight_stack=1.2,
        weight_compare=1.5, weight_string=0.2,
        numeric_constant_rate=0.55,
    ),
    "Gatak": FamilyProfile(
        name="Gatak",
        num_functions=(5, 9),
        blocks_per_function=(4, 8),
        block_length=(4, 11),
        loop_probability=0.18,
        branch_probability=0.35,
        call_probability=0.22,
        data_blocks=(2, 5),
        weight_mov=4.5, weight_arith=1.5, weight_stack=1.2,
        weight_compare=1.0, weight_string=0.5,
        numeric_constant_rate=0.5,
    ),
}


def family_sample_counts(total: int, minimum_per_family: int = 4) -> Dict[str, int]:
    """Scale the real Figure 7 proportions down to ``total`` samples."""
    real_total = sum(MSKCFG_FAMILY_COUNTS.values())
    counts = {
        name: max(minimum_per_family, round(total * real / real_total))
        for name, real in MSKCFG_FAMILY_COUNTS.items()
    }
    return counts


def generate_mskcfg_sample(
    family: str,
    index: int,
    seed: int = 0,
    knobs: Optional[ObfuscationKnobs] = None,
) -> Tuple[str, str, int]:
    """Regenerate one corpus sample, optionally re-obfuscated.

    With ``knobs=None`` the returned ``(name, asm_text, label)`` triple is
    bit-identical to the corresponding entry of
    :func:`generate_mskcfg_listings` for the same ``seed`` — each sample
    draws from its own ``SeedSequence([seed, label, index])`` stream, so
    regeneration needs nothing but the coordinates.  Passing knobs
    re-obfuscates the *same* underlying program: the problem-space attack
    (:mod:`repro.adv.asmattack`) searches over these variants.
    """
    if family not in MSKCFG_PROFILES:
        raise DatasetError(
            f"unknown MSKCFG family {family!r}; "
            f"expected one of {MSKCFG_FAMILIES}"
        )
    label = MSKCFG_FAMILIES.index(family)
    profile = MSKCFG_PROFILES[family]
    if knobs is not None:
        profile = knobs.apply(profile)
    rng = np.random.default_rng(np.random.SeedSequence([seed, label, index]))
    listing = ProgramGenerator(profile, rng).generate_listing()
    return (f"{family}_{index:05d}", listing, label)


def generate_mskcfg_listings(
    total: int = 270,
    seed: int = 0,
    minimum_per_family: int = 4,
    knobs: Optional[ObfuscationKnobs] = None,
    per_sample_knobs: Optional[Mapping[str, ObfuscationKnobs]] = None,
) -> List[Tuple[str, str, int]]:
    """Generate ``(name, asm_text, label)`` triples for the corpus.

    ``knobs`` re-obfuscates every sample; ``per_sample_knobs`` maps
    sample names (``"<family>_<index:05d>"``) to per-sample overrides and
    wins over ``knobs`` where both apply.  With neither, the output is
    bit-identical to what this function produced before knob support
    existed (per-sample RNG streams are unchanged).
    """
    if total < len(MSKCFG_FAMILIES):
        raise DatasetError(
            f"total={total} too small for {len(MSKCFG_FAMILIES)} families"
        )
    counts = family_sample_counts(total, minimum_per_family)
    samples: List[Tuple[str, str, int]] = []
    for family in MSKCFG_FAMILIES:
        for index in range(counts[family]):
            name = f"{family}_{index:05d}"
            sample_knobs = knobs
            if per_sample_knobs is not None and name in per_sample_knobs:
                sample_knobs = per_sample_knobs[name]
            samples.append(
                generate_mskcfg_sample(
                    family, index, seed=seed, knobs=sample_knobs
                )
            )
    return samples


def generate_mskcfg_dataset(
    total: int = 270,
    seed: int = 0,
    minimum_per_family: int = 4,
) -> MalwareDataset:
    """Full pipeline: synthesize listings, run the MAGIC front end.

    This exercises parse -> tag (Algorithm 1) -> connect (Algorithm 2) ->
    Table I attribute extraction for every sample, exactly like the
    paper's 17-hour MSKCFG preprocessing run (just smaller).
    """
    listings = generate_mskcfg_listings(
        total=total, seed=seed, minimum_per_family=minimum_per_family
    )
    report = AcfgPipeline().extract_from_texts(listings)
    if report.failures:
        failed = ", ".join(f.name for f in report.failures[:5])
        raise DatasetError(
            f"{report.num_failed} samples failed ACFG extraction ({failed}...)"
        )
    return MalwareDataset(
        acfgs=report.acfgs, family_names=list(MSKCFG_FAMILIES), name="MSKCFG-synthetic"
    )
