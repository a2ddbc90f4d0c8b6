"""A cache of parsed manifests, keyed by their content.

``fl-plan --manifest`` parses and validates every row of the manifest, and a
corpus is planned many times over with the same bytes. An entry holds the
validated :class:`~fedspeech.federation.Manifest` columns. Its key is the
SHA-256 of the loader's own source digest and the manifest's digest (the
SHA-256 of its bytes, which a plan also records), so an edited manifest or
an edited loader is a miss whatever the file's size and times say, and no
version number has to be bumped by hand (the idea of hash-based ``.pyc``
files, PEP 552).

Entries live in ``$XDG_CACHE_HOME/fedspeech``, else ``~/.cache/fedspeech``.
At most ``MAX_ENTRIES`` are kept; the least recently used goes first.
Deleting the directory clears the cache. An entry that cannot be read, or
does not hold what its header says, is a miss, and the manifest is parsed as
without a cache; a cache that cannot be written is left alone.

An entry is a fixed header, then each speaker's row count and byte count of
utterance ids (int64) and each row's duration (float64), then the utterance
ids as the manifest holds them: their JSON texts, each ended by a newline,
grouped by speaker. Last come the speaker ids' JSON texts in the same form,
in name order. A JSON text never holds a newline, so every manifest that
loads can be cached. The header holds each section's size and a CRC-32 of
the counts and the ids, so a damaged entry is found without a scan of its
ids for newlines; durations are checked by value.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
import sys
import time
import zlib
from pathlib import Path
from typing import Optional

import numpy as np

from . import federation
from .errors import ManifestError
from .federation import Manifest, decode_ids, encode_ids, load_manifest

MAX_ENTRIES = 4

_SUFFIX = ".manifest"
_MAGIC = b"FSMANIF2"
# magic, key, rows, speakers, bytes of utterance ids, bytes of speaker ids,
# CRC-32 of every section but the durations, which are checked by value
_HEADER = struct.Struct("<8s32sQQQQI")
_BLOCK_BYTES = 1 << 20


def cache_dir() -> Optional[Path]:
    """The cache directory, or None if the home directory is unknown."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # the XDG base directory spec ignores a relative one
        try:
            base = Path.home() / ".cache"
        except RuntimeError:
            return None
    return Path(base) / "fedspeech"


def load_manifest_cached(path) -> tuple[Manifest, str]:
    """``load_manifest(path)`` through the cache, and the hex SHA-256 of the
    manifest's bytes. A manifest that cannot be opened or read, or that
    changes between the hash and the parse, raises ``ManifestError``."""
    try:
        with open(path, "rb") as fh:
            before = os.fstat(fh.fileno())
            digest = _file_digest(fh)
    except OSError as exc:
        raise _unreadable(path, exc) from None
    directory = cache_dir()
    try:
        key = hashlib.sha256(_source_digest() + digest).digest()
    except OSError:
        directory = None
    if directory is None:
        return _parse(path, before), digest.hex()
    entry = directory / (key.hex() + _SUFFIX)
    manifest = _read_entry(entry, key)
    if manifest is not None:
        with contextlib.suppress(OSError):
            _touch(entry)
        return manifest, digest.hex()
    manifest = _parse(path, before)
    with contextlib.suppress(OSError):
        _write_entry(directory, entry, key, manifest)
    return manifest, digest.hex()


def _parse(path, before: os.stat_result) -> Manifest:
    """``load_manifest(path)`` of the file that was ``before`` when it was
    hashed: a file changed since then (a write moves its ctime), or gone, has
    other bytes than the digest names."""
    try:
        manifest = load_manifest(path)
        unchanged = _identity(os.stat(path)) == _identity(before)
    except FileNotFoundError:
        unchanged = False
    except OSError as exc:
        raise _unreadable(path, exc) from None
    if not unchanged:
        raise ManifestError(f"manifest {path} changed while it was read")
    return manifest


def _unreadable(path, exc: OSError) -> ManifestError:
    return ManifestError(f"cannot read manifest {path}: {exc.strerror or exc}")


def _identity(st: os.stat_result) -> tuple:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _file_digest(fh) -> bytes:
    """SHA-256 of the file's bytes, read in blocks."""
    digest = hashlib.sha256()
    buffer = bytearray(_BLOCK_BYTES)
    view = memoryview(buffer)
    while n := fh.readinto(buffer):
        digest.update(view[:n])
    return digest.digest()


def _source_digest() -> bytes:
    """SHA-256 of the source of the loader and of this entry format."""
    digest = hashlib.sha256()
    for module in (federation, sys.modules[__name__]):
        with open(module.__file__, "rb") as fh:
            digest.update(fh.read())
    return digest.digest()


# ------------------------------------------------------------------ entries


def _read_entry(entry: Path, key: bytes) -> Optional[Manifest]:
    """The manifest an entry holds, or None if it is missing or damaged."""
    try:
        with open(entry, "rb") as fh:
            header = fh.read(_HEADER.size)
            if len(header) != _HEADER.size:
                return None
            magic, stored_key, rows, n_speakers, id_bytes, speaker_id_bytes, crc = \
                _HEADER.unpack(header)
            size = _HEADER.size + 16 * n_speakers + 8 * rows + id_bytes + speaker_id_bytes
            if (magic, stored_key) != (_MAGIC, key) or os.fstat(fh.fileno()).st_size != size:
                return None
            counts, byte_counts = np.empty(n_speakers, "<i8"), np.empty(n_speakers, "<i8")
            durations, ids = np.empty(rows, "<f8"), np.empty(id_bytes, np.uint8)
            for array in (counts, byte_counts, durations, ids):
                fh.readinto(array)
            speakers = fh.read(speaker_id_bytes)
            if _crc(counts, byte_counts, ids, speakers) != crc:
                return None
            speakers = decode_ids(speakers)
    except (OSError, ValueError):  # a UnicodeDecodeError is a ValueError
        return None
    if len(speakers) != n_speakers \
            or not all(map(str.__lt__, speakers, speakers[1:])):  # in name order
        return None
    if not (counts.min(initial=1) >= 1 and counts.sum() == rows
            and byte_counts.sum() == id_bytes
            and (durations > 0).all() and np.isfinite(durations).all()):
        return None
    return Manifest(utterance_ids=ids, speaker_rows=counts, speaker_bytes=byte_counts,
                    speaker_ids=tuple(speakers), durations_s=durations)


def _write_entry(directory: Path, entry: Path, key: bytes, manifest: Manifest) -> None:
    """Write ``manifest`` to ``entry`` through a temp file, then drop the
    least recently used entries past ``MAX_ENTRIES``. A manifest that cannot
    be stored leaves the cache as it was."""
    directory.mkdir(parents=True, exist_ok=True)
    tmp = directory / f".{entry.name}.{os.getpid()}.tmp"
    counts = np.ascontiguousarray(manifest.speaker_rows, "<i8")
    byte_counts = np.ascontiguousarray(manifest.speaker_bytes, "<i8")
    ids, speakers = manifest.utterance_ids, encode_ids(manifest.speaker_ids)[0]
    try:
        with open(tmp, "xb") as fh:
            fh.write(_HEADER.pack(_MAGIC, key, len(manifest), len(manifest.speaker_ids),
                                  len(ids), len(speakers),
                                  _crc(counts, byte_counts, ids, speakers)))
            for section in (counts, byte_counts,
                            np.ascontiguousarray(manifest.durations_s, "<f8"), ids, speakers):
                fh.write(section)
        os.replace(tmp, entry)
        _touch(entry)
    except OSError:
        pass
    finally:
        with contextlib.suppress(FileNotFoundError):
            tmp.unlink()
    _prune(directory)


def _crc(*sections) -> int:
    """The CRC-32 of the bytes of ``sections`` in turn."""
    check = 0
    for section in sections:
        check = zlib.crc32(section, check)
    return check


def _touch(entry: Path) -> None:
    """Mark an entry most recently used, in the clock's own resolution (a
    file's times follow a coarser one)."""
    now = time.time_ns()
    os.utime(entry, ns=(now, now))


def _prune(directory: Path) -> None:
    entries = []
    for entry in directory.glob("*" + _SUFFIX):
        with contextlib.suppress(OSError):
            entries.append((entry.stat().st_mtime_ns, entry))
    for _, entry in sorted(entries, reverse=True)[MAX_ENTRIES:]:
        with contextlib.suppress(OSError):
            entry.unlink()
