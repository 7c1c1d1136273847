"""The append-only write path of :class:`CheckpointStore`.

One ``add`` grows the file by one line and never touches earlier
bytes, which is what bounds per-shard persistence at O(1); re-adds and
resumes keep the file equal to what a fresh :func:`load_checkpoint`
reports.
"""

import json

from repro.runtime import (
    CheckpointStore,
    RunFingerprint,
    config_digest,
    load_checkpoint,
)


def _fingerprint(**overrides) -> RunFingerprint:
    fields = dict(
        kind="reader.test", seed=3, total=40, shard_size=10,
        config_hash=config_digest({"k": 1}), code_version="1.0.0",
    )
    fields.update(overrides)
    return RunFingerprint(**fields)


class TestAppendOnlyWrites:
    def test_add_appends_one_line_and_keeps_prefix_bytes(self, tmp_path):
        path = tmp_path / "append.ckpt"
        store = CheckpointStore.create(path, _fingerprint())
        previous = path.read_bytes()
        for index in range(5):
            store.add(index, {"sum": index})
            current = path.read_bytes()
            # Strict growth: the old file is a byte prefix of the new.
            assert current.startswith(previous)
            appended = current[len(previous):]
            assert appended.endswith(b"\n")
            assert appended.count(b"\n") == 1
            previous = current

    def test_idempotent_readd_leaves_file_untouched(self, tmp_path):
        path = tmp_path / "idem.ckpt"
        store = CheckpointStore.create(path, _fingerprint())
        store.add(0, {"sum": 1})
        before = path.read_bytes()
        store.add(0, {"sum": 1})  # byte-identical re-delivery
        assert path.read_bytes() == before

    def test_resume_without_damage_keeps_appending(self, tmp_path):
        path = tmp_path / "resume.ckpt"
        store = CheckpointStore.create(path, _fingerprint())
        store.add(0, {"sum": 1})
        resumed = CheckpointStore.resume(path, _fingerprint())
        before = path.read_bytes()
        resumed.add(1, {"sum": 2})
        assert path.read_bytes().startswith(before)
        loaded = load_checkpoint(path)
        assert set(loaded.records) == {0, 1}

    def test_file_order_is_completion_order(self, tmp_path):
        path = tmp_path / "order.ckpt"
        store = CheckpointStore.create(path, _fingerprint())
        for index in (2, 0, 1):  # out-of-index-order completion
            store.add(index, {"sum": index})
        lines = path.read_text(encoding="utf-8").splitlines()
        indices = [json.loads(line)["index"] for line in lines[1:]]
        assert indices == [2, 0, 1]

    def test_conflicting_readd_replaces_the_record(self, tmp_path):
        path = tmp_path / "conflict.ckpt"
        store = CheckpointStore.create(path, _fingerprint())
        store.add(0, {"sum": 1})
        store.add(1, {"sum": 2})
        # Re-adding an index with different content forces a rewrite
        # that leaves no stale copy and moves the record to the end.
        store.add(0, {"sum": 999})
        loaded = load_checkpoint(path)
        assert loaded.records[0].payload == {"sum": 999}
        assert loaded.duplicates == 0 and loaded.conflicts == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["index"] for line in lines[1:]] == [1, 0]
