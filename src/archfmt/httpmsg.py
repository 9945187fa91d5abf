"""Split WARC blocks that carry HTTP messages into headers and payload."""

from __future__ import annotations

import base64
import hashlib
from typing import Optional

_SEP = b"\r\n\r\n"


def split_http_block(block: bytes) -> tuple[int, str, Optional[str], bytes]:
    """Return (status, mime, header_text, payload) for an HTTP message block.

    Blocks that do not look like an HTTP message come back whole:
    status -1, empty mime, header_text None, payload == block.
    """
    if not block.startswith(b"HTTP/"):
        return -1, "", None, block
    sep = block.find(_SEP)
    if sep < 0:
        head, payload = block, b""
    else:
        head, payload = block[:sep], block[sep + 4 :]
    text = head.decode("latin-1")
    lines = text.split("\r\n")
    status = -1
    parts = lines[0].split(None, 2)
    if len(parts) >= 2 and parts[1].isdigit():
        status = int(parts[1])
    mime = ""
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-type":
            mime = value.split(";")[0].strip().lower()
            break
    return status, mime, text, payload


def http_fields(content_type: str, block: bytes) -> tuple[int, str, Optional[str], bytes]:
    """(status, mime, header_text, payload) of a WARC block: application/http
    blocks are split, others come back whole with status -1 and no header
    text.  mime falls back to the WARC Content-Type."""
    warc_mime = content_type.split(";")[0].strip()
    if warc_mime.lower() == "application/http":
        status, mime, headers, payload = split_http_block(block)
    else:
        status, mime, headers, payload = -1, "", None, block
    return status, mime or warc_mime, headers, payload


def payload_digest(payload: bytes) -> str:
    """Base32 (uppercase, 32 chars) SHA-1 of the payload bytes."""
    return base64.b32encode(hashlib.sha1(payload).digest()).decode("ascii")
