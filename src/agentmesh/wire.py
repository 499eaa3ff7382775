"""Canonical binary encoding shared by every signed or digested structure.

Length-prefixed UTF-8 strings and big-endian fixed-width integers, fields in
a fixed order. All signatures and content digests in this package are
computed over these byte layouts; JSON appears only in export formats, whose
readers type-check each field with the `json_*` helpers below, raising
ValueError for a value of the wrong type or range.
"""

from __future__ import annotations

import struct

__all__ = [
    "DecodeError",
    "enc_u8",
    "enc_u16",
    "enc_u32",
    "enc_u64",
    "enc_f64",
    "enc_bytes",
    "enc_str",
    "Reader",
    "json_object",
    "json_list",
    "json_str",
    "json_u64",
    "json_float",
]


class DecodeError(ValueError):
    """Canonical bytes are truncated or malformed."""


def enc_u8(value: int) -> bytes:
    return struct.pack(">B", value)


def enc_u16(value: int) -> bytes:
    return struct.pack(">H", value)


def enc_u32(value: int) -> bytes:
    return struct.pack(">I", value)


def enc_u64(value: int) -> bytes:
    return struct.pack(">Q", value)


def enc_f64(value: float) -> bytes:
    return struct.pack(">d", value)


def enc_bytes(data: bytes) -> bytes:
    if len(data) > 0xFFFFFFFF:
        raise ValueError("byte field too long")
    return struct.pack(">I", len(data)) + data


def enc_str(text: str) -> bytes:
    return enc_bytes(text.encode("utf-8"))


class Reader:
    """Sequential decoder over canonical bytes."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def take(self, n: int) -> bytes:
        if n < 0 or self._pos + n > len(self._data):
            raise DecodeError("truncated input")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return struct.unpack(">B", self.take(1))[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack(">d", self.take(8))[0]

    def bytes_(self) -> bytes:
        return self.take(self.u32())

    def str_(self) -> str:
        raw = self.bytes_()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"invalid utf-8: {exc}") from exc

    def expect_end(self) -> None:
        if self.remaining != 0:
            raise DecodeError(f"{self.remaining} trailing bytes")


def json_object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def json_list(value: object, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array")
    return value


def json_str(value: object, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string")
    return value


def json_u64(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < 1 << 64:
        raise ValueError(f"{what} must be an integer in [0, 2**64)")
    return value


def json_float(value: object, what: str) -> float:
    """A JSON number as a float; NaN and infinities pass, integers too large
    for a float do not."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None
