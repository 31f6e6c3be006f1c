"""Property-based fuzzing of the checkpoint reader.

A checkpoint directory is read back after a crash, a copy between
machines, or a hand edit, so the one reader is held to one contract on
damaged input: it restores an engine, or it raises
:class:`CheckpointError` naming the offending file — never any other
exception, and never a read outside the directory.  The edits are
structure-aware: manifest keys dropped or retyped, station counts that
are invalid or disagree with the state arrays, foreign and escaping file
names, and archives with keys dropped, added or retyped (re-hashed in
the manifest, so the reader gets past its checksums to the contents).
Example counts are bounded so the suite stays fast.
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream.checkpoint import MANIFEST_NAME, CheckpointError, load_checkpoint, save_checkpoint
from repro.stream.engine import synthesize_fleet

from .conftest import build_fleet_engine, replace_file, rewrite_archive

FUZZ = settings(deadline=None, max_examples=60)

json_values = (
    st.none()
    | st.booleans()
    | st.integers(-3, 2**40)
    | st.floats()
    | st.text(max_size=12)
    | st.lists(st.integers(-1, 3), max_size=4)
    | st.dictionaries(st.text(max_size=6), st.integers(), max_size=2)
)

file_names = st.sampled_from(
    [
        "../escape-0.npz",
        "/tmp/model-0.npz",
        "model-0.npz",
        "model.npz",
        "state-0.npz",
        "state-1.npz",
        "extra-0.npz",
        "model-7.npz",
        "",
        ".",
        "state-0.npz/..",
        MANIFEST_NAME,
    ]
) | st.text(max_size=20)

archive_keys = st.text(alphabet="abcdefghijklmnopqrstuvwxyz._0123456789", min_size=1, max_size=12)

odd_arrays = st.sampled_from(
    [
        np.asarray("text"),
        np.zeros((2, 2)),
        np.empty(0, dtype=np.float64),
        np.asarray([1.5]),
        np.asarray([True, False]),
        np.arange(40, dtype=np.int8),
    ]
)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory, small_autoencoder):
    """A checkpoint with every kind of file: model, state, extra."""
    train = synthesize_fleet(6, 40, seed=61)
    live = synthesize_fleet(6, 8, seed=62, dropout_rate=0.1)
    engine = build_fleet_engine(small_autoencoder, train)
    path = tmp_path_factory.mktemp("pristine") / "ckpt"
    engine.step_block(live)
    save_checkpoint(path, engine, extra={"serve.position": np.asarray(8)})
    return path


def _entries(manifest):
    return [manifest["model"], manifest["state"], manifest["extra"]]


def _bad_station_counts(n_stations: int):
    """Station counts the reader must reject: negative or zero, not an
    int, or different from the count the state arrays were saved at."""
    return (
        st.integers(-3, 0)
        | st.integers(1, 64).filter(lambda n: n != n_stations)
        | st.sampled_from([float(n_stations), str(n_stations), True, None, [n_stations]])
    )


def _mutate_manifest(data, manifest) -> None:
    """Apply one drawn structural edit to ``manifest`` in place."""
    kind = data.draw(
        st.sampled_from(["drop", "retype", "n_stations", "file_name", "entry_field", "pipeline"])
    )
    if kind == "drop":
        del manifest[data.draw(st.sampled_from(sorted(manifest)))]
    elif kind == "retype":
        manifest[data.draw(st.sampled_from(sorted(manifest)))] = data.draw(json_values)
    elif kind == "n_stations":
        manifest["n_stations"] = data.draw(_bad_station_counts(manifest["n_stations"]))
    elif kind == "file_name":
        data.draw(st.sampled_from(_entries(manifest)))["file"] = data.draw(file_names)
    elif kind == "entry_field":
        entry = data.draw(st.sampled_from(_entries(manifest)))
        key = data.draw(st.sampled_from(["file", "bytes", "sha256"]))
        if data.draw(st.booleans()):
            del entry[key]
        else:
            entry[key] = data.draw(json_values)
    else:
        pipeline = manifest["pipeline"]
        key = data.draw(st.sampled_from(sorted(pipeline)))
        if data.draw(st.booleans()):
            del pipeline[key]
        else:
            pipeline[key] = data.draw(json_values)


def _edit_arrays(data, op: str, arrays: dict) -> None:
    if op == "add":
        arrays[data.draw(archive_keys)] = data.draw(odd_arrays)
    elif arrays:
        key = data.draw(st.sampled_from(sorted(arrays)))
        if op == "drop":
            del arrays[key]
        else:
            arrays[key] = data.draw(odd_arrays)


def _mutate_archive(data, ckpt_dir: Path, name: str) -> None:
    """Apply one drawn edit to the listed archive ``name``."""
    op = data.draw(st.sampled_from(["drop", "add", "retype", "garbage", "truncate"]))
    if op == "truncate":
        raw = (ckpt_dir / name).read_bytes()
        (ckpt_dir / name).write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    elif op == "garbage":
        replace_file(ckpt_dir, name, data.draw(st.binary(max_size=300)))
    else:
        rewrite_archive(ckpt_dir, name, lambda arrays: _edit_arrays(data, op, arrays))


def _assert_restores_or_names(ckpt_dir: Path, culprit: Path) -> None:
    try:
        load_checkpoint(ckpt_dir)
    except CheckpointError as exc:
        assert str(culprit) in str(exc), str(exc)


class TestCheckpointReaderFuzz:
    @FUZZ
    @given(st.data())
    def test_manifest_edits_restore_or_name_the_manifest(self, pristine, data):
        with tempfile.TemporaryDirectory() as tmp:
            ckpt_dir = Path(tmp) / "ckpt"
            shutil.copytree(pristine, ckpt_dir)
            manifest = json.loads((ckpt_dir / MANIFEST_NAME).read_text())
            _mutate_manifest(data, manifest)
            (ckpt_dir / MANIFEST_NAME).write_text(json.dumps(manifest))
            _assert_restores_or_names(ckpt_dir, ckpt_dir / MANIFEST_NAME)

    @FUZZ
    @given(st.data())
    def test_archive_edits_restore_or_name_the_archive(self, pristine, data):
        with tempfile.TemporaryDirectory() as tmp:
            ckpt_dir = Path(tmp) / "ckpt"
            shutil.copytree(pristine, ckpt_dir)
            manifest = json.loads((ckpt_dir / MANIFEST_NAME).read_text())
            name = data.draw(st.sampled_from([e["file"] for e in _entries(manifest)]))
            _mutate_archive(data, ckpt_dir, name)
            _assert_restores_or_names(ckpt_dir, ckpt_dir / name)

    @FUZZ
    @given(st.data())
    def test_bad_station_count_names_the_manifest(self, pristine, data):
        with tempfile.TemporaryDirectory() as tmp:
            ckpt_dir = Path(tmp) / "ckpt"
            shutil.copytree(pristine, ckpt_dir)
            manifest = json.loads((ckpt_dir / MANIFEST_NAME).read_text())
            manifest["n_stations"] = data.draw(_bad_station_counts(manifest["n_stations"]))
            (ckpt_dir / MANIFEST_NAME).write_text(json.dumps(manifest))
            with pytest.raises(CheckpointError) as excinfo:
                load_checkpoint(ckpt_dir)
            assert str(ckpt_dir / MANIFEST_NAME) in str(excinfo.value)

    @FUZZ
    @given(st.binary(max_size=200))
    def test_arbitrary_manifest_bytes_are_rejected(self, pristine, raw):
        with tempfile.TemporaryDirectory() as tmp:
            ckpt_dir = Path(tmp) / "ckpt"
            shutil.copytree(pristine, ckpt_dir)
            (ckpt_dir / MANIFEST_NAME).write_bytes(raw)
            with pytest.raises(CheckpointError) as excinfo:
                load_checkpoint(ckpt_dir)
            assert str(ckpt_dir / MANIFEST_NAME) in str(excinfo.value)
