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

An entry is a fixed header, then one section per
:class:`~fedspeech.federation.Manifest` column, one after another, each of
the dtype and the header's count of items that ``_SECTIONS`` gives. The last
holds the utterance ids as the manifest does: their JSON texts, each
followed by the separator ``fl_partition.json`` puts after it, grouped by
speaker; the speakers' byte counts and the header's count of id bytes
include the separators. A JSON text never holds a raw newline, so every
manifest that loads can be cached. Speakers are numbers, as in the
manifest: no speaker id is stored. The header (magic ``FSMANIF6``) holds the
counts of rows, speakers and bytes of ids and a CRC-32 of every section but
the durations, so a damaged entry is found without a scan of its ids for
separators; durations are checked by value, and the order against the
totals. An entry of an earlier format is a miss.
A plan thus reads each speaker's total and the longest-first order instead
of making them from every row again.

The header also holds a hint: the stat identity (device, inode, size,
mtime, ctime) of the file the entry was last read for. Hashing a corpus-
scale manifest takes a fifth of a warm plan, so a worker thread hashes it
(``hashlib`` lets go of the GIL in each block) while the caller's thread
reads the entry whose hint matches the file and runs the caller's
``derive`` on it. The hint is never trusted: that entry's result is used
only when its key equals the key of the bytes just hashed, and is dropped
otherwise; then the entry of that key is read, else the manifest is parsed.
An entry found by its key for a file of another identity (a copy, a
checkout, a ``touch``) gets that file's identity as its hint, so the next
plan of that file overlaps again. The manifest is read, never mapped: a
file cut short while it is hashed is a read error, not a ``SIGBUS``. A miss
reads it twice, so a pipe or any file that is not regular is refused unread.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import stat
import struct
import sys
import threading
import time
import zlib
from pathlib import Path
from typing import Callable, NamedTuple, Optional, TypeVar

from . import federation
from .errors import ConfigError, FedspeechError, ManifestError
from .federation import Manifest, load_manifest
from .lazy import np
from .report import replaced


T = TypeVar("T")

MAX_ENTRIES = 4

_SUFFIX = ".manifest"
_MAGIC = b"FSMANIF6"
# magic, key, rows, speakers, bytes of utterance ids, CRC-32 of every section
# but the durations, which are checked by value, and the hint: the stat
# identity of the file the entry was last read for
_HINT = struct.Struct("<5Q")
_HEADER = struct.Struct(f"<8s32sQQQI{_HINT.size}s")
_ROWS, _SPEAKERS, _ID_BYTES = 2, 3, 4  # the places of the header's counts
# The sections after the header, in the order they are written: the Manifest
# column each holds, its dtype, and the header count of its items.
_SECTIONS = (("speaker_rows", "<i8", _SPEAKERS), ("speaker_bytes", "<i8", _SPEAKERS),
             ("speaker_totals_s", "<f8", _SPEAKERS), ("longest_first", "<i8", _SPEAKERS),
             ("durations_s", "<f8", _ROWS), ("utterance_ids", "u1", _ID_BYTES))
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


def load_manifest_cached(path, derive: Callable[[Manifest], T] = lambda manifest: manifest
                         ) -> tuple[T, str]:
    """``derive(load_manifest(path))`` through the cache, and the hex SHA-256
    of the manifest's bytes. ``derive`` must be a pure function of the
    manifest: it may also run on an entry that turns out to hold other bytes,
    and what it returned or raised there is dropped. A manifest that cannot be
    opened or read, that is not a regular file (a pipe could be read only
    once), or that changes between the hash and the parse, raises
    ``ManifestError``."""
    try:  # a FIFO opens at once without a writer, and is refused unread
        fh = open(path, "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK))
        try:
            before = os.fstat(fh.fileno())
            if not stat.S_ISREG(before.st_mode):
                raise ManifestError(f"manifest {path} is not a regular file")
        except BaseException:
            fh.close()
            raise
    except OSError as exc:
        raise _unreadable(path, exc) from None
    hashing = _Hashing(fh)
    hashing.start()  # before numpy's import, which the entry's read sets off
    hint = _hint(before)
    try:
        directory = cache_dir()
        try:
            source = _source_digest()
        except OSError:
            directory = None
        # while the manifest is hashed: the entry last read for a file with
        # this stat identity, and what derive makes of it
        hinted = None if directory is None else _by_hint(directory, hint, derive)
    finally:
        hashing.join()
    try:
        digest = hashing.digest()
    except OSError as exc:
        raise _unreadable(path, exc) from None
    if directory is None:
        return derive(_parse(path, before)), digest.hex()
    key = hashlib.sha256(source + digest).digest()
    if hinted is not None and hinted.key == key:
        with contextlib.suppress(OSError):
            _touch(hinted.entry)
        if hinted.error is not None:
            raise hinted.error
        return hinted.result, digest.hex()
    hinted = None  # a stale entry's manifest is let go before another is read
    entry = directory / (key.hex() + _SUFFIX)
    found = _read_entry(entry, key=key)
    if found is not None:
        with contextlib.suppress(OSError):
            if found.hint != hint:  # a copy, a checkout or a touch moved the file
                _write_hint(entry, hint)
            _touch(entry)
        return derive(found.manifest), digest.hex()
    manifest = _parse(path, before)
    with contextlib.suppress(OSError):
        _write_entry(directory, entry, key, hint, manifest)
    return derive(manifest), digest.hex()


class _Hashing(threading.Thread):
    """The SHA-256 of an open file's bytes, read on a thread of its own, which
    closes the file. It prints nothing: ``digest`` raises what the hash
    raised."""

    def __init__(self, fh):
        super().__init__(name="manifest-sha256", daemon=True)
        self._fh, self._digest, self._error = fh, None, None

    def run(self) -> None:
        try:
            with self._fh as fh:
                self._digest = _file_digest(fh)
        except BaseException as exc:  # raised again by digest(), on the caller's thread
            self._error = exc

    def digest(self) -> bytes:
        """The digest, once the thread has ended."""
        if self._error is not None:
            raise self._error
        return self._digest


class _Hinted(NamedTuple):
    """An entry found by its hint, before its key could be checked, and what
    ``derive`` returned or raised on its manifest."""
    entry: Path
    key: bytes
    result: object
    error: Optional[FedspeechError]


def _by_hint(directory: Path, hint: bytes, derive: Callable[[Manifest], T]
             ) -> Optional[_Hinted]:
    """The most recently used entry whose header holds ``hint``, if one can be
    read, and ``derive`` of its manifest."""
    for entry in _by_recent_use(directory):
        found = _read_entry(entry, hint=hint)
        if found is not None:
            try:
                return _Hinted(entry, found.key, derive(found.manifest), None)
            except FedspeechError as exc:
                return _Hinted(entry, found.key, None, exc)
    return None


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


def _hint(st: os.stat_result) -> bytes:
    """``_identity(st)`` as a header holds it, each field modulo 2**64."""
    return _HINT.pack(*(field % 2**64 for field in _identity(st)))


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


class _Entry(NamedTuple):
    key: bytes
    hint: bytes
    manifest: Manifest


def _read_entry(entry: Path, key: Optional[bytes] = None,
                hint: Optional[bytes] = None) -> Optional[_Entry]:
    """What an entry holds, or None if it is missing or damaged, or its header
    holds another ``key`` or ``hint`` than one given."""
    try:
        with open(entry, "rb") as fh:
            raw = fh.read(_HEADER.size)
            if len(raw) != _HEADER.size:
                return None
            header = _HEADER.unpack(raw)
            magic, stored_key, rows, n_speakers, id_bytes, crc, stored_hint = header
            if magic != _MAGIC or key not in (None, stored_key) \
                    or hint not in (None, stored_hint) \
                    or os.fstat(fh.fileno()).st_size != _layout(header)["end"]:
                return None
            columns = {name: np.empty(header[count], dtype) for name, dtype, count in _SECTIONS}
            for column in columns.values():
                fh.readinto(column)
            if _crc(columns) != crc:
                return None
    except (OSError, ValueError):
        return None
    counts, durations, totals, order = (columns[name] for name in (
        "speaker_rows", "durations_s", "speaker_totals_s", "longest_first"))
    if not (counts.min(initial=1) >= 1 and counts.sum() == rows
            and columns["speaker_bytes"].sum() == id_bytes
            and (durations > 0).all() and np.isfinite(durations).all()
            and (totals > 0).all() and ((order >= 0) & (order < n_speakers)).all()):
        return None
    # Totals never rise along the order, and equal totals keep name order:
    # so the order holds each speaker once, as the stable sort made it.
    ordered = totals[order]
    if not ((ordered[1:] < ordered[:-1])
            | ((ordered[1:] == ordered[:-1]) & (order[1:] > order[:-1]))).all():
        return None
    return _Entry(stored_key, stored_hint, Manifest(**columns))


def _write_entry(directory: Path, entry: Path, key: bytes, hint: bytes,
                 manifest: Manifest) -> None:
    """Write ``manifest`` to ``entry`` through the reports' writer, a temp
    file of this call's own, then drop the least recently used entries past
    ``MAX_ENTRIES``. A manifest that cannot be stored leaves the cache as it
    was."""
    directory.mkdir(parents=True, exist_ok=True)
    columns = {name: np.ascontiguousarray(getattr(manifest, name), dtype)
               for name, dtype, _ in _SECTIONS}
    with contextlib.suppress(ConfigError, OSError):
        with replaced(entry, "xb") as fh:
            fh.write(_HEADER.pack(_MAGIC, key, len(manifest), len(manifest.speaker_rows),
                                  len(manifest.utterance_ids), _crc(columns), hint))
            for column in columns.values():
                fh.write(column)
        _touch(entry)
    _prune(directory)


def _layout(header: tuple) -> dict[str, int]:
    """Where each section of an entry with this header starts, in the order
    they are written, and under ``"end"`` the entry's size."""
    starts, at = {}, _HEADER.size
    for name, dtype, count in _SECTIONS:
        starts[name] = at
        at += header[count] * np.dtype(dtype).itemsize
    starts["end"] = at
    return starts


def _crc(columns: dict) -> int:
    """The CRC-32 of the bytes of every section in turn but the durations,
    which are checked by value."""
    check = 0
    for name, column in columns.items():
        if name != "durations_s":
            check = zlib.crc32(column, check)
    return check


def _touch(entry: Path) -> None:
    """Mark an entry most recently used, in the clock's own resolution (a
    file's times follow a coarser one)."""
    now = time.time_ns()
    os.utime(entry, ns=(now, now))


def _write_hint(entry: Path, hint: bytes) -> None:
    """Set an entry's hint in place; a reader that meets it half written
    finds no candidate there, or one whose key is checked."""
    with open(entry, "r+b") as fh:
        fh.seek(_HEADER.size - _HINT.size)
        fh.write(hint)


def _by_recent_use(directory: Path) -> list[Path]:
    """The entries in ``directory``, the most recently used first."""
    entries = []
    with contextlib.suppress(OSError), os.scandir(directory) as items:
        for item in items:
            if item.name.endswith(_SUFFIX):
                with contextlib.suppress(OSError):
                    entries.append((item.stat().st_mtime_ns, item.path))
    return [Path(path) for _, path in sorted(entries, reverse=True)]


def _prune(directory: Path) -> None:
    for entry in _by_recent_use(directory)[MAX_ENTRIES:]:
        with contextlib.suppress(OSError):
            entry.unlink()
