"""Dataset caching: persist extracted ACFG corpora to disk.

The paper spends 17 hours extracting MSKCFG's ACFGs and then reuses
them; this module gives the same workflow: write a
:class:`MalwareDataset` to a directory once, reload it instantly in
later sessions.  Format: one compact ACFG text record per sample (see
:mod:`repro.cfg.serialization`) plus a ``manifest.json`` with the family
table and sample order.

A 17-hour artifact deserves crash safety, so writes are atomic: the
whole corpus is staged in a sibling temp directory and swapped into
place with directory renames.  A kill mid-save leaves either the old
cache or the new one, never a torn mix — and saving a smaller corpus
over a larger one cannot leak stale ``*.acfg`` records, because the
previous directory is replaced wholesale.  Integrity is checked too:
``manifest.json`` carries a ``format_version`` and a per-record sha256,
verified on load (a corrupt record raises
:class:`~repro.exceptions.DatasetError` naming the file).  A manifest
without a ``format_version`` or a record without a ``sha256`` is
rejected the same way, with a hint to re-save the cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from typing import List

from repro.cfg.serialization import acfg_from_text, acfg_to_text
from repro.datasets.loader import MalwareDataset
from repro.exceptions import DatasetError
from repro.features.acfg import ACFG

_MANIFEST = "manifest.json"

#: Manifest schema version.  Version 2 added ``format_version`` itself
#: and per-record ``sha256`` checksums; this build reads version 2 only.
_FORMAT_VERSION = 2


def _record_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def save_dataset(dataset: MalwareDataset, directory: str) -> None:
    """Write ``dataset`` to ``directory`` atomically.

    The corpus is staged in a temp directory next to the target and
    renamed into place, replacing any previous cache as a unit.
    """
    target = os.path.abspath(directory)
    parent = os.path.dirname(target)
    os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".tmp-save-", dir=parent)
    try:
        records = []
        for index, acfg in enumerate(dataset.acfgs):
            filename = f"{index:06d}.acfg"
            text = acfg_to_text(acfg.edges, acfg.attributes)
            with open(os.path.join(staging, filename), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
            records.append({
                "file": filename,
                "label": acfg.label,
                "name": acfg.name,
                "sha256": _record_digest(text),
            })
        manifest = {
            "format_version": _FORMAT_VERSION,
            "name": dataset.name,
            "family_names": dataset.family_names,
            "samples": records,
        }
        with open(os.path.join(staging, _MANIFEST), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)

        if os.path.isdir(target):
            # A directory cannot be renamed over a non-empty directory,
            # so retire the old cache first; a crash between the two
            # renames costs the old cache but never tears the new one.
            retired = tempfile.mkdtemp(prefix=".tmp-old-", dir=parent)
            os.rename(target, os.path.join(retired, "cache"))
            os.rename(staging, target)
            shutil.rmtree(retired, ignore_errors=True)
        else:
            os.rename(staging, target)
    except BaseException:  # repro: allow[broad-except] — staging cleanup, re-raised
        shutil.rmtree(staging, ignore_errors=True)
        raise


def _validated_label(record: dict, num_families: int):
    """The record's label, checked against the family table.

    An out-of-range or non-integer label would otherwise surface much
    later as an opaque index error inside a training run.
    """
    label = record["label"]
    if not isinstance(label, int) or isinstance(label, bool):
        raise DatasetError(
            f"sample {record.get('name', record.get('file', '?'))!r} has a "
            f"non-integer label {label!r}"
        )
    if not 0 <= label < num_families:
        raise DatasetError(
            f"sample {record.get('name', record.get('file', '?'))!r} has "
            f"label {label}, outside the {num_families}-family table"
        )
    return label


def load_dataset(directory: str) -> MalwareDataset:
    """Reload a dataset written by :func:`save_dataset`.

    Verifies every per-record checksum and validates every label
    against the family table, so corruption is reported here — naming
    the offending file — rather than surfacing as an index error
    mid-training.
    """
    manifest_path = os.path.join(directory, _MANIFEST)
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise DatasetError(f"cannot read manifest {manifest_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetError(f"corrupt manifest {manifest_path}: {exc}") from exc

    if "format_version" not in manifest:
        raise DatasetError(
            f"manifest {manifest_path} has no format_version: a legacy "
            "checksum-less cache; re-save it with save_dataset"
        )
    version = manifest["format_version"]
    if version != _FORMAT_VERSION:
        raise DatasetError(
            f"unsupported cache format_version {version!r} in "
            f"{manifest_path} (this build reads version {_FORMAT_VERSION})"
        )

    family_names = manifest["family_names"]
    acfgs: List[ACFG] = []
    for record in manifest["samples"]:
        label = _validated_label(record, len(family_names))
        path = os.path.join(directory, record["file"])
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DatasetError(f"missing sample file {path}: {exc}") from exc
        expected = record.get("sha256")
        if expected is None:
            raise DatasetError(
                f"sample file {path} has no sha256 in manifest "
                f"{manifest_path}; re-save the cache with save_dataset"
            )
        if _record_digest(text) != expected:
            raise DatasetError(
                f"corrupt sample file {path}: sha256 mismatch against the "
                "manifest (cache was modified or torn after saving)"
            )
        edges, attributes, _ = acfg_from_text(text)
        acfgs.append(
            ACFG(
                edges=edges,
                attributes=attributes,
                label=label,
                name=record["name"],
            )
        )
    return MalwareDataset(
        acfgs=acfgs,
        family_names=family_names,
        name=manifest.get("name", ""),
    )
