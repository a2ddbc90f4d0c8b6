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

An entry is a fixed header, then each speaker's row count (int64) and each
row's duration (float64), then the utterance ids' JSON texts as the manifest
holds them: ``rows x width`` bytes of the fixed-width array, or (width 0 in
the header, for ids with one very long id) one text per line. Last come the
speaker ids' JSON texts, one per line, in name order. A JSON text never
holds a newline, so every manifest that loads can be cached.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

import numpy as np

from . import federation
from .errors import UnreadableManifestError
from .federation import Manifest, load_manifest

MAX_ENTRIES = 4

_SUFFIX = ".manifest"
_MAGIC = b"FSMANIF1"
# magic, key, rows, speakers, width of an utterance id (0: one per line),
# bytes of utterance ids, bytes of speaker ids
_HEADER = struct.Struct("<8s32sQQQQQ")
_BLOCK_BYTES = 1 << 20
_STRINGS_PER_WRITE = 1 << 16


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
    changes between the hash and the parse, raises ``UnreadableManifestError``."""
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
        raise UnreadableManifestError(f"manifest {path} changed while it was read")
    return manifest


def _unreadable(path, exc: OSError) -> UnreadableManifestError:
    return UnreadableManifestError(f"cannot read manifest {path}: {exc.strerror or exc}")


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
            magic, stored_key, rows, n_speakers, width, id_bytes, speaker_bytes = \
                _HEADER.unpack(header)
            size = _HEADER.size + 8 * (n_speakers + rows) + id_bytes + speaker_bytes
            if (magic, stored_key) != (_MAGIC, key) or os.fstat(fh.fileno()).st_size != size \
                    or (width and id_bytes != rows * width):
                return None
            counts, durations = np.empty(n_speakers, "<i8"), np.empty(rows, "<f8")
            fh.readinto(counts)
            fh.readinto(durations)
            if width:
                ids = np.empty(rows, f"S{width}")
                fh.readinto(ids)
            else:
                ids = _read_lines(fh, id_bytes, rows)
            speakers = _read_lines(fh, speaker_bytes, n_speakers)
            if ids is None or speakers is None:
                return None
            speakers = json.loads("[" + ",".join(speakers) + "]")
    except (OSError, ValueError):  # a UnicodeDecodeError is a ValueError
        return None
    if len(speakers) != n_speakers or (width and not _json_texts(ids)) \
            or not all(map(str.__lt__, speakers, speakers[1:])):  # in name order
        return None
    if not (counts.min(initial=1) >= 1 and counts.sum() == rows
            and (durations > 0).all() and np.isfinite(durations).all()):
        return None
    return Manifest(utterance_ids=ids, speaker_rows=counts, speaker_ids=tuple(speakers),
                    durations_s=durations)


def _json_texts(ids: np.ndarray) -> bool:
    """Whether each item of a fixed-width bytes array can be the JSON text
    of an id: it starts with a quote, every byte is printable ASCII, and NUL
    bytes only pad its end."""
    grid = ids.view(np.uint8).reshape(len(ids), ids.dtype.itemsize)
    if not (grid[:, 0] == ord('"')).all() or grid.max(initial=0) > 0x7e:
        return False
    if grid.min(initial=0x20) >= 0x20:  # no NUL and no control byte
        return True
    # Every NUL is padding, which str_len leaves out, and every other byte is
    # printable: a NUL less one wraps round to 0xff.
    nuls = grid.size - np.count_nonzero(grid)
    return nuls == grid.size - np.char.str_len(ids).sum() and (grid - 1).min() >= 0x1f


def _read_lines(fh, size: int, count: int) -> Optional[np.ndarray]:
    """The ``count`` newline-ended ASCII strings in the next ``size`` bytes
    of ``fh`` as an object array, or None if those bytes hold another count."""
    strings = np.empty(count, dtype=object)
    filled, rest = 0, b""
    while size:
        chunk = fh.read(min(size, _BLOCK_BYTES))
        if not chunk:
            return None
        size -= len(chunk)
        data = rest + chunk
        cut = data.rfind(b"\n") + 1
        lines = data[:cut].decode("ascii").split("\n")[:-1]
        rest = data[cut:]
        if filled + len(lines) > count:
            return None
        strings[filled:filled + len(lines)] = lines
        filled += len(lines)
    return strings if filled == count and not rest else None


def _write_entry(directory: Path, entry: Path, key: bytes, manifest: Manifest) -> None:
    """Write ``manifest`` to ``entry`` through a temp file, then drop the
    least recently used entries past ``MAX_ENTRIES``. A manifest that cannot
    be stored leaves the cache as it was."""
    directory.mkdir(parents=True, exist_ok=True)
    tmp = directory / f".{entry.name}.{os.getpid()}.tmp"
    ids = manifest.utterance_ids
    try:
        with open(tmp, "xb") as fh:
            fh.write(bytes(_HEADER.size))
            fh.write(np.ascontiguousarray(manifest.speaker_rows, "<i8"))
            fh.write(np.ascontiguousarray(manifest.durations_s, "<f8"))
            if ids.dtype.kind == "S":
                width, id_bytes = ids.dtype.itemsize, fh.write(np.ascontiguousarray(ids))
            else:
                width, id_bytes = 0, _write_lines(fh, ids)
            speaker_bytes = _write_lines(fh, list(map(encode_basestring_ascii,
                                                      manifest.speaker_ids)))
            fh.seek(0)
            fh.write(_HEADER.pack(_MAGIC, key, len(manifest), len(manifest.speaker_ids),
                                  width, id_bytes, speaker_bytes))
        os.replace(tmp, entry)
        _touch(entry)
    except OSError:
        pass
    finally:
        with contextlib.suppress(FileNotFoundError):
            tmp.unlink()
    _prune(directory)


def _write_lines(fh, strings) -> int:
    """Write each ASCII string and a newline; the byte count."""
    written = 0
    for lo in range(0, len(strings), _STRINGS_PER_WRITE):
        part = strings[lo:lo + _STRINGS_PER_WRITE]
        written += fh.write(("\n".join(part) + "\n").encode("ascii"))
    return written


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
