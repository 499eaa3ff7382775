"""Canonical binary encoding shared by every signed or digested structure.

Length-prefixed UTF-8 strings and big-endian fixed-width integers, fields in
a fixed order. All signatures and content digests in this package are
computed over these byte layouts, which are only ever written, never decoded:
values travel as JSON, written by `dumps` and read by `load_json` or
`load_jsonl`, whose callers type-check each field with the `json_*` helpers
below, raising ValueError for a value of the wrong type or range. A number
read by `json_float` is finite, and a byte field read by `json_hex` is the
one hex spelling `bytes.hex()` writes, so no caller checks either again.
"""

from __future__ import annotations

import json
import math
import re
import struct
from pathlib import Path
from typing import Callable

__all__ = [
    "enc_u8",
    "enc_u16",
    "enc_u32",
    "enc_u64",
    "enc_bytes",
    "enc_str",
    "dumps",
    "load_json",
    "load_jsonl",
    "json_object",
    "json_list",
    "json_str",
    "json_u64",
    "json_float",
    "json_hex",
]


def enc_u8(value: int) -> bytes:
    return struct.pack(">B", value)


def enc_u16(value: int) -> bytes:
    return struct.pack(">H", value)


def enc_u32(value: int) -> bytes:
    return struct.pack(">I", value)


def enc_u64(value: int) -> bytes:
    return struct.pack(">Q", value)


def enc_bytes(data: bytes) -> bytes:
    if len(data) > 0xFFFFFFFF:
        raise ValueError("byte field too long")
    return struct.pack(">I", len(data)) + data


def enc_str(text: str) -> bytes:
    return enc_bytes(text.encode("utf-8"))


def dumps(obj: object) -> str:
    """The one JSON rendering: sorted keys, no whitespace, and standard JSON
    only, so a NaN or an infinity raises ValueError."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _decode(text: str, where: str) -> object:
    """`json.loads`, with nesting too deep for the decoder's recursion
    refused as a ValueError that names `where`."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"JSON in {where} nested too deeply") from None


def load_json(path: str | Path) -> object:
    with open(path, "r", encoding="utf-8") as fh:
        return _decode(fh.read(), str(path))


def load_jsonl(path: str | Path, parse: Callable[[object], object]) -> list:
    """`parse` applied to each non-blank line of a JSON Lines file; a
    ValueError names the line it came from."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(parse(_decode(line, str(path))))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    return out


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
    """A JSON number as a finite float. NaN and the infinities (which `json`
    reads from `NaN`, `Infinity` and `1e400`) are refused, and so are
    integers too large for a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{what} must be a number")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite")
    return number


_LOWER_HEX = re.compile(r"(?:[0-9a-f]{2})*")


def json_hex(value: object, what: str, size: int | None = None) -> bytes:
    """A byte field as `bytes.hex()` writes it: lowercase hex, two digits a
    byte, and exactly `size` bytes when a size is given."""
    text = json_str(value, what)
    if not _LOWER_HEX.fullmatch(text):
        raise ValueError(f"{what} must be lowercase hex, two digits a byte")
    if size is not None and len(text) != 2 * size:
        raise ValueError(f"{what} must be {size} bytes, got {len(text) // 2}")
    return bytes.fromhex(text)
