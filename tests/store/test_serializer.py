"""Serializer round-trip and validation tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.store.serializer import (
    BACKREF_SIZE,
    HEADER_SIZE,
    REF_SIZE,
    StoredObject,
    decode_object,
    encode_object,
    encoded_size,
)


def make_record(**overrides):
    defaults = dict(oid=1, cid=2, refs=(3, None, 5),
                    back_refs=((7, 0), (8, 2)), filler=10)
    defaults.update(overrides)
    return StoredObject(**defaults)


class TestStoredObject:
    def test_size_matches_encoded_length(self):
        record = make_record()
        assert record.size == len(encode_object(record))

    def test_encoded_size_formula(self):
        assert encoded_size(3, 2, 10) == \
            HEADER_SIZE + 3 * REF_SIZE + 2 * BACKREF_SIZE + 10

    def test_non_null_refs(self):
        assert make_record().non_null_refs() == (3, 5)

    def test_with_refs_copies(self):
        original = make_record()
        changed = original.with_refs((9, 9, 9))
        assert changed.refs == (9, 9, 9)
        assert original.refs == (3, None, 5)
        assert changed.back_refs == original.back_refs

    def test_with_back_refs_copies(self):
        original = make_record()
        changed = original.with_back_refs(((1, 1),))
        assert changed.back_refs == ((1, 1),)
        assert original.back_refs == ((7, 0), (8, 2))

    def test_rejects_bad_oid(self):
        with pytest.raises(StorageError):
            StoredObject(oid=0, cid=1)

    def test_rejects_negative_filler(self):
        with pytest.raises(StorageError):
            StoredObject(oid=1, cid=1, filler=-1)

    def test_refs_normalised_to_tuple(self):
        record = StoredObject(oid=1, cid=1, refs=[2, None])
        assert record.refs == (2, None)

    def test_empty_record(self):
        record = StoredObject(oid=1, cid=0)
        assert record.size == HEADER_SIZE


class TestTrustedDecode:
    """Decoding skips ``__post_init__``; hand-built records still run it."""

    def test_decode_skips_validation(self, monkeypatch):
        data = encode_object(make_record())
        calls = []
        monkeypatch.setattr(StoredObject, "__post_init__",
                            lambda self: calls.append(self.oid))
        record = decode_object(data)
        assert calls == []
        assert record == make_record()
        assert type(record) is StoredObject

    def test_decoded_fields_have_the_validated_types(self):
        record = decode_object(encode_object(make_record()))
        assert type(record.refs) is tuple
        assert type(record.back_refs) is tuple
        assert all(type(pair) is tuple for pair in record.back_refs)
        assert record.size == make_record().size

    @pytest.mark.parametrize("fields", [
        dict(oid=0, cid=1), dict(oid=-3, cid=1), dict(oid=1, cid=-1),
        dict(oid=1, cid=1, filler=-1)])
    def test_hand_built_records_still_validate(self, fields):
        with pytest.raises(StorageError):
            StoredObject(**fields)


class TestRoundTrip:
    def test_basic(self):
        record = make_record()
        assert decode_object(encode_object(record)) == record

    def test_no_refs(self):
        record = StoredObject(oid=9, cid=3, filler=100)
        assert decode_object(encode_object(record)) == record

    def test_null_refs_preserved(self):
        record = StoredObject(oid=9, cid=3, refs=(None, None, 4))
        decoded = decode_object(encode_object(record))
        assert decoded.refs == (None, None, 4)

    def test_offset_decoding(self):
        record = make_record()
        data = b"\xAA" * 13 + encode_object(record)
        assert decode_object(data, offset=13) == record

    def test_concatenated_records(self):
        a = make_record(oid=1)
        b = make_record(oid=2, filler=3)
        blob = encode_object(a) + encode_object(b)
        assert decode_object(blob, 0) == a
        assert decode_object(blob, a.size) == b

    def test_large_oid(self):
        record = StoredObject(oid=2**60, cid=7)
        assert decode_object(encode_object(record)).oid == 2**60


class TestCorruption:
    def test_bad_magic(self):
        data = bytearray(encode_object(make_record()))
        data[0] ^= 0xFF
        with pytest.raises(StorageError, match="magic"):
            decode_object(bytes(data))

    def test_truncated_header(self):
        data = encode_object(make_record())[:HEADER_SIZE - 3]
        with pytest.raises(StorageError):
            decode_object(data)

    def test_truncated_body(self):
        data = encode_object(make_record())[:-4]
        with pytest.raises(StorageError, match="truncated"):
            decode_object(data)

    def test_too_many_refs_rejected_on_encode(self):
        record = StoredObject(oid=1, cid=1)
        object.__setattr__(record, "refs", (2,) * 70000)
        with pytest.raises(StorageError):
            encode_object(record)


@settings(max_examples=200, deadline=None)
@given(
    oid=st.integers(min_value=1, max_value=2**63 - 1),
    cid=st.integers(min_value=0, max_value=2**31 - 1),
    refs=st.lists(st.one_of(st.none(),
                            st.integers(min_value=1, max_value=2**62)),
                  max_size=20),
    back_refs=st.lists(st.tuples(st.integers(min_value=1, max_value=2**62),
                                 st.integers(min_value=0, max_value=60000)),
                       max_size=20),
    filler=st.integers(min_value=0, max_value=4096),
)
def test_roundtrip_property(oid, cid, refs, back_refs, filler):
    record = StoredObject(oid=oid, cid=cid, refs=tuple(refs),
                          back_refs=tuple(back_refs), filler=filler)
    encoded = encode_object(record)
    assert len(encoded) == record.size
    assert decode_object(encoded) == record
