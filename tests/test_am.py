"""Active Messages: the wire codec and the hidden activity field."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.labels import ActivityLabel
from repro.errors import NetworkError
from repro.hw.radio import Frame
from repro.tos.am import AM_BROADCAST, decode_frame, encode_frame


def test_codec_roundtrip_simple():
    frame = Frame(src=1, dst=4, am_type=0x42, payload=b"hello",
                  activity=ActivityLabel(4, 7).encode(), seqno=9)
    decoded = decode_frame(encode_frame(frame))
    assert decoded.src == 1
    assert decoded.dst == 4
    assert decoded.am_type == 0x42
    assert decoded.payload == b"hello"
    assert decoded.activity == ActivityLabel(4, 7).encode()
    assert decoded.seqno == 9


def test_wire_length_matches_frame_length():
    frame = Frame(src=1, dst=2, am_type=1, payload=b"x" * 10)
    raw = encode_frame(frame)
    assert len(raw) == frame.length


@settings(max_examples=60, deadline=None)
@given(
    src=st.integers(min_value=0, max_value=0xFFFF),
    dst=st.integers(min_value=0, max_value=0xFFFF),
    am_type=st.integers(min_value=0, max_value=0xFF),
    payload=st.binary(max_size=100),
    activity=st.integers(min_value=0, max_value=0xFFFF),
    seqno=st.integers(min_value=0, max_value=0xFF),
)
def test_codec_roundtrip_property(src, dst, am_type, payload, activity,
                                  seqno):
    frame = Frame(src=src, dst=dst, am_type=am_type, payload=payload,
                  activity=activity, seqno=seqno)
    decoded = decode_frame(encode_frame(frame))
    assert (decoded.src, decoded.dst, decoded.am_type, decoded.payload,
            decoded.activity, decoded.seqno) == (
        src, dst, am_type, payload, activity, seqno)


def test_crc_detects_corruption():
    raw = bytearray(encode_frame(Frame(src=1, dst=2, am_type=1,
                                       payload=b"data")))
    raw[5] ^= 0xFF
    with pytest.raises(NetworkError):
        decode_frame(bytes(raw))


def test_truncated_frame_rejected():
    with pytest.raises(NetworkError):
        decode_frame(b"\x00" * 5)


def test_length_field_mismatch_rejected():
    raw = bytearray(encode_frame(Frame(src=1, dst=2, am_type=1,
                                       payload=b"data")))
    # Shorten the payload but keep the header's length byte and fix CRC:
    # decode must reject the inconsistency (we simply cut bytes; CRC fails
    # first, which is also acceptable rejection).
    with pytest.raises(NetworkError):
        decode_frame(bytes(raw[:-3]))


def test_send_stamps_cpu_activity(bounce_run):
    """Integration: frames on the air carry the sender's activity."""
    network, (node1, node4), (app1, app4) = bounce_run
    # Both apps exchanged packets; node1 received node4's original packet
    # carrying 4:BounceApp.
    assert app1.received > 0
    remote = node1.registry.label(4, "BounceApp")
    assert node1.am.received > 0
    # The AM layer bound the CPU to the remote label at least once.
    binds = [e for e in node1.entries()
             if e.type_name == "act_bind" and e.res_id == 0
             and e.value == remote.encode()]
    assert binds


def test_broadcast_constant():
    assert AM_BROADCAST == 0xFFFF


def _crc16_bitwise(data: bytes) -> int:
    """The bitwise CRC-16/CCITT loop: the reference for the table."""
    crc = 0
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ 0x8408
            else:
                crc >>= 1
    return crc & 0xFFFF


def test_crc16_table_matches_bitwise_reference():
    import random

    from repro.tos.am import _crc16

    rng = random.Random(0x8408)
    frames = [b"", bytes(range(256)), b"\xff" * 64]
    frames += [bytes(rng.randrange(256) for _ in range(rng.randrange(1, 128)))
               for _ in range(200)]
    for frame in frames:
        assert _crc16(frame) == _crc16_bitwise(frame)
