"""StoredRecord state model."""

from repro.db.record import RecordForm, StoredRecord


def make(payload=b"payload", **kwargs):
    defaults = dict(
        record_id="r", database="db", form=RecordForm.RAW, payload=payload,
        raw_size=len(payload),
    )
    defaults.update(kwargs)
    return StoredRecord(**defaults)


class TestStoredRecord:
    def test_stored_size_is_payload(self):
        assert make(payload=b"12345").stored_size == 5

    def test_stored_size_includes_pending_updates(self):
        record = make(payload=b"12345")
        record.pending_updates.append(b"abc")
        record.pending_updates.append(b"defg")
        assert record.stored_size == 12

    def test_is_raw(self):
        assert make().is_raw
        assert not make(form=RecordForm.DELTA, base_id="b").is_raw

    def test_defaults(self):
        record = make()
        assert record.ref_count == 0
        assert not record.deleted
        assert record.base_id is None
