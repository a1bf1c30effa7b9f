"""Active Messages: the link layer with Quanto's hidden activity field.

The paper adds a hidden 16-bit field to the TinyOS Active Message
implementation (Table 5 lists it at 8 changed lines):

* on **send**, the field is set to the CPU's then-current activity, so a
  packet is "colored" by the activity that submitted it;
* on **receive**, once the AM layer decodes the packet it reads the field
  and **binds** the reception proxy activity to the label it carries —
  from that moment the receiving node's work is charged to the *remote*
  activity.

This module also owns the wire codec.  Frames are serialized to real
bytes — an 11-byte 802.15.4/AM header, the hidden 2-byte activity field,
the payload, and a 2-byte CRC — so field widths and byte counts (which
drive SPI transfer timing) are honest.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional

from repro.core.activity import SingleActivityDevice
from repro.core.labels import ActivityLabel
from repro.errors import NetworkError
from repro.hw.radio import Frame

#: Broadcast destination address.
AM_BROADCAST = 0xFFFF

#: Header layout: FCF(2) DSN(1) dest-PAN(2) dst(2) src(2) AM-type(1)
#: length(1) = 11 bytes, then the hidden activity field (2 bytes).
_HEADER = struct.Struct("<HBHHHBB")
_ACTIVITY = struct.Struct("<H")
_CRC = struct.Struct("<H")
_FCF_DATA = 0x8841

#: Decode/dispatch cost charged when the AM layer handles a packet.
DECODE_CYCLES = 60


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame to its on-air bytes (header + hidden activity
    field + payload + CRC)."""
    header = _HEADER.pack(
        _FCF_DATA,
        frame.seqno & 0xFF,
        0xFFFF,
        frame.dst & 0xFFFF,
        frame.src & 0xFFFF,
        frame.am_type & 0xFF,
        len(frame.payload) & 0xFF,
    )
    body = header + _ACTIVITY.pack(frame.activity & 0xFFFF) + frame.payload
    crc = _crc16(body)
    return body + _CRC.pack(crc)


def decode_frame(raw: bytes) -> Frame:
    """Parse on-air bytes back into a frame, verifying the CRC."""
    if len(raw) < _HEADER.size + _ACTIVITY.size + _CRC.size:
        raise NetworkError(f"frame too short: {len(raw)} bytes")
    body, crc_bytes = raw[:-2], raw[-2:]
    (crc,) = _CRC.unpack(crc_bytes)
    if crc != _crc16(body):
        raise NetworkError("frame CRC mismatch")
    fcf, dsn, _pan, dst, src, am_type, length = _HEADER.unpack_from(body, 0)
    if fcf != _FCF_DATA:
        raise NetworkError(f"unexpected FCF 0x{fcf:04x}")
    (activity,) = _ACTIVITY.unpack_from(body, _HEADER.size)
    payload = body[_HEADER.size + _ACTIVITY.size:]
    if len(payload) != length:
        raise NetworkError(
            f"length field {length} does not match payload {len(payload)}"
        )
    return Frame(src=src, dst=dst, am_type=am_type, payload=payload,
                 activity=activity, seqno=dsn)


def _crc16_table() -> tuple[int, ...]:
    """Entry ``b``: the CRC register after shifting byte ``b`` through
    the reflected CCITT polynomial (0x8408) bit by bit."""
    table = []
    for crc in range(256):
        for _ in range(8):
            crc = (crc >> 1) ^ 0x8408 if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_CRC16_TABLE = _crc16_table()


def _crc16(data: bytes) -> int:
    """CRC-16/CCITT as used by 802.15.4 FCS, one table lookup per byte."""
    crc = 0
    table = _CRC16_TABLE
    for byte in data:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc


class ActiveMessageLayer:
    """Send/receive dispatch with activity-label transfer across nodes."""

    def __init__(
        self,
        node_id: int,
        mac,
        cpu_activity: SingleActivityDevice,
        mcu,
    ) -> None:
        self.node_id = node_id
        self.mac = mac
        self.cpu_activity = cpu_activity
        self.mcu = mcu
        self._receivers: dict[int, Callable[[Frame], None]] = {}
        self._seqno = 0
        self.sent = 0
        self.received = 0
        mac.set_receive(self._on_frame)

    # -- sending --------------------------------------------------------

    def send(
        self,
        dst: int,
        am_type: int,
        payload: bytes,
        on_send_done: Optional[Callable[[Frame], None]] = None,
    ) -> Frame:
        """Submit a packet.  The hidden activity field is stamped with the
        CPU's current activity (paper §3.3)."""
        label = self.cpu_activity.get()
        self._seqno = (self._seqno + 1) & 0xFF
        frame = Frame(
            src=self.node_id,
            dst=dst,
            am_type=am_type,
            payload=bytes(payload),
            activity=label.encode(),
            seqno=self._seqno,
        )
        self.sent += 1
        self.mac.send(frame, on_send_done)
        return frame

    # -- receiving -------------------------------------------------------

    def register_receiver(self, am_type: int,
                          fn: Callable[[Frame], None]) -> None:
        """Register the handler for one AM type."""
        self._receivers[am_type] = fn

    def _on_frame(self, frame: Frame) -> None:
        """Called by the radio stack in task context, still under the
        reception proxy activity.  Decoding the hidden field terminates
        the proxy by binding it to the originating activity."""
        if frame.dst not in (self.node_id, AM_BROADCAST):
            return
        self.mcu.consume(DECODE_CYCLES)
        remote = ActivityLabel.decode(frame.activity)
        self.cpu_activity.bind(remote)
        self.received += 1
        receiver = self._receivers.get(frame.am_type)
        if receiver is not None:
            receiver(frame)
