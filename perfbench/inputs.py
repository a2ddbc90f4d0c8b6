"""Cached benchmark inputs: a Common-Voice-scale manifest and its facts.

The manifest is built by this file alone, not by the program under test, so
its facts (row count, total duration, distinct speakers, largest speaker)
are known apart from anything the program reports. It is made once per
checkout from a fixed seed and cached under ``perfbench/.cache``; the
workload seed only varies the per-op flags.

Regenerate the cache with::

    python3 perfbench/inputs.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

CACHE = Path(__file__).resolve().parent / ".cache"
MANIFEST = CACHE / "cv_manifest.tsv"
FACTS = CACHE / "cv_manifest.facts.json"

MANIFEST_SEED = 20220406
N_ROWS = 1_950_000
N_SPEAKERS = 50_000
MEAN_MS = 5500.0
# Raw Common Voice column names: speaker hash, clip file, duration in ms.
HEADER = ("client_id", "path", "duration[ms]")


def make_manifest(path: Path, seed: int = MANIFEST_SEED, n_rows: int = N_ROWS,
                  n_speakers: int = N_SPEAKERS) -> dict:
    """Write the manifest to ``path`` and return its facts.

    Per-speaker clip counts are heavy-tailed (lognormal weights, sigma 1.6,
    every speaker keeps at least one clip; the median speaker has about ten
    clips, the largest several thousand). Clip durations are whole
    milliseconds, lognormal around a 5.5 s mean, so many small speakers
    share a total and the partitioner's seeded tie shuffle runs. Rows are
    shuffled so speakers interleave as in a real export.
    """
    rng = np.random.default_rng(seed)
    weights = rng.lognormal(mean=0.0, sigma=1.6, size=n_speakers)
    counts = 1 + rng.multinomial(n_rows - n_speakers, weights / weights.sum())
    durations = rng.lognormal(mean=0.0, sigma=0.35, size=n_rows)
    durations_ms = np.maximum(np.rint(durations * (MEAN_MS / durations.mean())), 500)
    durations_ms = durations_ms.astype(np.int64)
    speaker_of = np.repeat(np.arange(n_speakers), counts)
    order = rng.permutation(n_rows)
    hashes = rng.integers(0, 2**63, size=n_speakers, dtype=np.int64)
    if len(np.unique(hashes)) != n_speakers:
        raise RuntimeError("speaker hash collision; change the manifest seed")
    names = [format(int(h), "016x") for h in hashes]

    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(HEADER) + "\n")
        spk, dur = speaker_of[order].tolist(), durations_ms[order].tolist()
        step = 100_000
        for lo in range(0, n_rows, step):
            fh.write("".join(
                f"{names[s]}\tcommon_voice_{lo + i:07d}.mp3\t{d}\n"
                for i, (s, d) in enumerate(zip(spk[lo:lo + step], dur[lo:lo + step]))))
    os.replace(tmp, path)

    speaker_ms = np.bincount(speaker_of, weights=durations_ms, minlength=n_speakers)
    return {"seed": seed, "rows": n_rows, "speakers": n_speakers,
            "total_ms": int(durations_ms.sum()),
            "max_speaker_ms": int(speaker_ms.max()),
            "bytes": path.stat().st_size}


def ensure_manifest() -> tuple[Path, dict]:
    """Return the cached manifest and its facts, building them if absent."""
    if FACTS.is_file() and MANIFEST.is_file():
        facts = json.loads(FACTS.read_text())
        if facts.get("seed") == MANIFEST_SEED and facts.get("bytes") == MANIFEST.stat().st_size:
            return MANIFEST, facts
    CACHE.mkdir(parents=True, exist_ok=True)
    facts = make_manifest(MANIFEST)
    tmp = FACTS.with_name(FACTS.name + f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(facts, indent=2) + "\n")
    os.replace(tmp, FACTS)
    return MANIFEST, facts


if __name__ == "__main__":
    for stale in (FACTS, MANIFEST):
        stale.unlink(missing_ok=True)
    path, facts = ensure_manifest()
    print(f"wrote {path}: {json.dumps(facts)}")
