import csv
import json
import random
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import pytest

from fedspeech.federation import ID_SEPARATOR, encode_ids, synthetic_manifest

FIXTURE_SEED = 7
# The columns a manifest must have, as write_manifest writes them
REQUIRED_COLUMNS = ("utterance_id", "speaker_id", "duration_s")


@pytest.fixture(scope="session", autouse=True)
def session_cache_home(tmp_path_factory):
    """The manifest cache of class- and session-scoped fixtures, which run
    before any test's own: never the user's home."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache-home")))
        yield


@pytest.fixture(autouse=True)
def cache_home(tmp_path, monkeypatch):
    """Each test starts on an empty manifest cache of its own."""
    home = tmp_path / "cache-home"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


@pytest.fixture
def entry_reads(monkeypatch):
    """How each manifest-cache entry that was read was found, in order:
    "hint" while the manifest was hashed, "key" after."""
    from fedspeech import manifest_cache

    found = []
    read_entry = manifest_cache._read_entry

    def recording(entry, key=None, hint=None):
        result = read_entry(entry, key=key, hint=hint)
        if result is not None:
            found.append("hint" if hint is not None else "key")
        return result

    monkeypatch.setattr(manifest_cache, "_read_entry", recording)
    return found


def decode_ids(texts):
    """The strings that JSON texts, each followed by ``ID_SEPARATOR``, in a
    bytes-like object hold; the texts must be exactly as ``encode_ids``
    makes them."""
    texts = bytes(texts)
    ids = json.loads(b"[" + texts[:-len(ID_SEPARATOR)] + b"]")
    assert encode_ids(ids)[0] == texts
    return ids


def texts_at(items, depth):
    """The JSON texts of ``items``, each followed by the separator of a list
    written at nesting ``depth``: ``encode_ids(items)[0]`` at the depth of
    ``fl_partition.json``'s lists of ids."""
    sep = ",\n" + "  " * (depth + 1)
    return "".join(encode_basestring_ascii(item) + sep for item in items).encode("ascii")


def write_manifest(path, manifest):
    """Write ``manifest`` as a tab-separated file under the required columns.
    Speaker ``s`` is named ``spk_{s}``, zero-padded so that name order is
    number order, as the loader numbers speakers."""
    width = len(str(len(manifest.speaker_rows) - 1))
    names = (f"spk_{s:0{width}d}" for s in range(len(manifest.speaker_rows)))
    speaker_of = chain.from_iterable(map(repeat, names, manifest.speaker_rows.tolist()))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(REQUIRED_COLUMNS)
        writer.writerows(zip(decode_ids(manifest.utterance_ids), speaker_of,
                             (f"{d:.6f}" for d in manifest.durations_s.tolist())))


@pytest.fixture(scope="session")
def corpus_manifest():
    """Corpus-scale synthetic manifest: 195k utterances, 6k speakers, 5.5 s mean."""
    return synthetic_manifest(n_utterances=195_000, n_speakers=6_000,
                              mean_duration_s=5.5, seed=FIXTURE_SEED)


@pytest.fixture(scope="session")
def corpus_manifest_path(corpus_manifest, tmp_path_factory):
    path = tmp_path_factory.mktemp("manifest") / "corpus.tsv"
    write_manifest(path, corpus_manifest)
    return path


def tie_heavy_rows():
    """(speaker, clip, sentence, milliseconds) rows of a small manifest whose
    speakers often share a total: whole-millisecond durations from a short
    list, 60 of the 90 speakers with one clip, rows shuffled."""
    rng = random.Random(20220406)
    names = [f"{rng.getrandbits(40):010x}" for _ in range(90)]
    rows = []
    for s, name in enumerate(names):
        clips = 1 if s < 60 else rng.randint(2, 9)
        rows += [(name, rng.choice((1200, 2500, 3000, 4500))) for _ in range(clips)]
    rng.shuffle(rows)
    return [(name, f"common_voice_{i:05d}.mp3", "a short sentence", ms)
            for i, (name, ms) in enumerate(rows)]


def manifest_text(rows, newline="\n"):
    """The rows under raw Common Voice column names."""
    lines = ["client_id\tpath\tsentence\tduration[ms]"]
    lines += ["\t".join(map(str, row)) for row in rows]
    return newline.join(lines) + newline


@pytest.fixture(scope="session")
def tie_manifest(tmp_path_factory):
    path = tmp_path_factory.mktemp("tie") / "validated.tsv"
    path.write_text(manifest_text(tie_heavy_rows()))
    return path
