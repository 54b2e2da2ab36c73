"""Canonical binary encoding for protocol messages.

The wire layout is fixed and self-delimiting:

* a top-level message encodes as a leading type-name field followed by
  each of its dataclass fields in declared order,
* every field is a 4-byte big-endian length prefix followed by content,
* unsigned integers are 8-byte big-endian content (booleans encode as 0/1,
  enums as their integer value),
* strings are UTF-8 content, byte strings are raw content, and 32-byte
  digests are raw content,
* a nested message is encoded as its fields alone, with no type-name
  field: the enclosing schema already fixes its type,
* sequences are a 4-byte big-endian element count followed by each element
  as a length-prefixed field; optional values are a sequence of zero or one.

Decoding accepts exactly the image of encoding.  Trailing bytes, truncated
input, unknown type tags, out-of-range values, and messages whose own
invariants fail are all rejected, with the byte offset of the problem where
one is known.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
import types
import typing
from typing import Any, TypeVar

from .crypto import DIGEST_SIZE, Digest

_U32_MAX = 2**32 - 1
_U64_MAX = 2**64 - 1

M = TypeVar("M")


class CodecError(Exception):
    """Base class for canonical-encoding failures."""


class EncodeError(CodecError):
    """A value cannot be represented in the canonical encoding."""


class ValidationError(CodecError):
    """A message violates one of its declared invariants."""


class DecodeError(CodecError):
    """Input bytes are not a canonical encoding.

    Attributes:
        offset: byte position at which decoding failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None) -> None:
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


class MessageTypeError(DecodeError):
    """The type tag on the wire differs from the expected message type."""


# --- field kinds -----------------------------------------------------------

_KIND_U64 = "u64"
_KIND_BOOL = "bool"
_KIND_STR = "str"
_KIND_BYTES = "bytes"
_KIND_DIGEST = "digest"
_KIND_ENUM = "enum"
_KIND_NESTED = "nested"
_KIND_LIST = "list"
_KIND_OPTIONAL = "optional"


@dataclasses.dataclass(frozen=True)
class _FieldCodec:
    kind: str
    inner: Any = None  # enum class, nested class, or element _FieldCodec


@dataclasses.dataclass(frozen=True)
class _Schema:
    cls: type
    tag: str
    fields: tuple[tuple[str, _FieldCodec], ...]
    signature_field: str | None  # trailing detached-signature field, if any


_BY_TAG: dict[str, _Schema] = {}
_BY_CLASS: dict[type, _Schema] = {}


def _resolve(tp: Any, owner: str) -> _FieldCodec:
    if tp is bool:
        return _FieldCodec(_KIND_BOOL)
    if tp is int:
        return _FieldCodec(_KIND_U64)
    if tp is str:
        return _FieldCodec(_KIND_STR)
    if tp is bytes:
        return _FieldCodec(_KIND_BYTES)
    if tp is Digest:
        return _FieldCodec(_KIND_DIGEST)
    if isinstance(tp, type) and issubclass(tp, enum.IntEnum):
        return _FieldCodec(_KIND_ENUM, tp)
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        if len(args) != 1 or len(typing.get_args(tp)) != 2:
            raise TypeError(f"{owner}: only Optional[...] unions are encodable")
        return _FieldCodec(_KIND_OPTIONAL, _resolve(args[0], owner))
    if origin in (tuple, list):
        args = typing.get_args(tp)
        if origin is tuple:
            if len(args) != 2 or args[1] is not Ellipsis:
                raise TypeError(f"{owner}: tuples must be homogeneous tuple[X, ...]")
            element = args[0]
        else:
            element = args[0]
        return _FieldCodec(_KIND_LIST, _resolve(element, owner))
    if isinstance(tp, type) and tp in _BY_CLASS:
        return _FieldCodec(_KIND_NESTED, tp)
    raise TypeError(f"{owner}: field type {tp!r} has no canonical encoding")


def register_message(cls: type) -> type:
    """Register an existing dataclass with the canonical codec.

    Field order on the wire is the dataclass declaration order.  A trailing
    field of type Signature whose name ends in ``_signature`` is treated as
    the message's detached signature and excluded from signing payloads.
    """
    from .crypto import Signature  # local import keeps layering one-way

    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls.__name__} must be a dataclass")
    tag = cls.__name__
    if tag in _BY_TAG:
        raise TypeError(f"duplicate message tag {tag!r}")
    hints = typing.get_type_hints(cls)
    fields = []
    for f in dataclasses.fields(cls):
        fields.append((f.name, _resolve(hints[f.name], f"{tag}.{f.name}")))
    signature_field = None
    if fields:
        last_name, last_codec = fields[-1]
        if (
            last_name.endswith("_signature")
            and last_codec.kind == _KIND_NESTED
            and last_codec.inner is Signature
        ):
            signature_field = last_name
    schema = _Schema(cls=cls, tag=tag, fields=tuple(fields), signature_field=signature_field)
    _BY_TAG[tag] = schema
    _BY_CLASS[cls] = schema
    return cls


def canonical_message(cls: type) -> type:
    """Declare a frozen dataclass message with canonical encoding.

    A ``validate`` method, when present, runs on construction and again on
    encode, so invariant-violating instances neither exist nor leave the
    process.
    """
    if "validate" in cls.__dict__ and "__post_init__" not in cls.__dict__:
        def __post_init__(self) -> None:  # noqa: N807
            self.validate()
        cls.__post_init__ = __post_init__  # type: ignore[attr-defined]
    cls = dataclasses.dataclass(frozen=True)(cls)
    return register_message(cls)


def registered_types() -> dict[str, type]:
    """Tag-to-class map of every registered message type."""
    return {tag: schema.cls for tag, schema in _BY_TAG.items()}


def _schema_for(cls: type) -> _Schema:
    schema = _BY_CLASS.get(cls)
    if schema is None:
        raise EncodeError(f"{cls.__name__} is not a registered message type")
    return schema


# --- encoding ---------------------------------------------------------------


def _frame(content: bytes) -> bytes:
    if len(content) > _U32_MAX:
        raise EncodeError("field content exceeds 4-byte length prefix")
    return struct.pack(">I", len(content)) + content


def _encode_u64(value: Any, what: str) -> bytes:
    if not isinstance(value, int) or isinstance(value, bool):
        raise EncodeError(f"{what}: expected an unsigned integer")
    if not 0 <= value <= _U64_MAX:
        raise EncodeError(f"{what}: {value} outside unsigned 64-bit range")
    return struct.pack(">Q", value)


def _encode_content(codec: _FieldCodec, value: Any, what: str) -> bytes:
    kind = codec.kind
    if kind == _KIND_BOOL:
        if not isinstance(value, bool):
            raise EncodeError(f"{what}: expected bool")
        return struct.pack(">Q", 1 if value else 0)
    if kind == _KIND_U64:
        return _encode_u64(value, what)
    if kind == _KIND_ENUM:
        if not isinstance(value, codec.inner):
            raise EncodeError(f"{what}: expected {codec.inner.__name__}")
        return struct.pack(">Q", int(value))
    if kind == _KIND_STR:
        if not isinstance(value, str):
            raise EncodeError(f"{what}: expected str")
        return value.encode("utf-8")
    if kind == _KIND_BYTES:
        if not isinstance(value, (bytes, bytearray)):
            raise EncodeError(f"{what}: expected bytes")
        return bytes(value)
    if kind == _KIND_DIGEST:
        if not isinstance(value, Digest):
            raise EncodeError(f"{what}: expected Digest")
        return value.bytes
    if kind == _KIND_NESTED:
        if not isinstance(value, codec.inner):
            raise EncodeError(f"{what}: expected {codec.inner.__name__}")
        return _encode_fields(_schema_for(codec.inner), value)
    if kind == _KIND_LIST:
        if not isinstance(value, (tuple, list)):
            raise EncodeError(f"{what}: expected a sequence")
        if len(value) > _U32_MAX:
            raise EncodeError(f"{what}: sequence too long")
        parts = [struct.pack(">I", len(value))]
        for i, element in enumerate(value):
            parts.append(_frame(_encode_content(codec.inner, element, f"{what}[{i}]")))
        return b"".join(parts)
    if kind == _KIND_OPTIONAL:
        if value is None:
            return struct.pack(">I", 0)
        return struct.pack(">I", 1) + _frame(
            _encode_content(codec.inner, value, what)
        )
    raise EncodeError(f"{what}: unhandled kind {kind!r}")


def _encode_fields(schema: _Schema, msg: Any) -> bytes:
    validate = getattr(msg, "validate", None)
    if callable(validate):
        validate()
    return b"".join(
        _frame(_encode_content(codec, getattr(msg, name), f"{schema.tag}.{name}"))
        for name, codec in schema.fields
    )


def encode(msg: Any) -> bytes:
    """Canonical bytes for ``msg``; raises if any invariant fails."""
    schema = _schema_for(type(msg))
    return _frame(schema.tag.encode("utf-8")) + _encode_fields(schema, msg)


def signing_payload_from(cls: type, values: dict[str, Any]) -> bytes:
    """Signing payload for ``cls`` built from field values, signature excluded."""
    schema = _schema_for(cls)
    if schema.signature_field is None:
        raise EncodeError(f"{schema.tag} carries no detached signature")
    parts = [_frame(schema.tag.encode("utf-8"))]
    for name, codec in schema.fields:
        if name == schema.signature_field:
            continue
        if name not in values:
            raise EncodeError(f"{schema.tag}.{name} missing from signing payload")
        parts.append(_frame(_encode_content(codec, values[name], f"{schema.tag}.{name}")))
    return b"".join(parts)


def signing_payload(msg: Any) -> bytes:
    """Signing payload of a signed message instance (its signature excluded)."""
    schema = _schema_for(type(msg))
    values = {name: getattr(msg, name) for name, _ in schema.fields}
    return signing_payload_from(type(msg), values)


def signature_field_name(cls: type) -> str:
    schema = _schema_for(cls)
    if schema.signature_field is None:
        raise EncodeError(f"{schema.tag} carries no detached signature")
    return schema.signature_field


# --- decoding ---------------------------------------------------------------


class _Reader:
    __slots__ = ("data", "pos", "base")

    def __init__(self, data: bytes, base: int = 0) -> None:
        self.data = data
        self.pos = 0
        self.base = base

    @property
    def offset(self) -> int:
        return self.base + self.pos

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise DecodeError(f"truncated input reading {what}", self.offset)
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack(">I", self.take(4, what))[0]

    def field(self, what: str) -> tuple[bytes, int]:
        """Read one length-prefixed field; returns (content, content offset)."""
        length = self.u32(f"{what} length")
        start = self.offset
        return self.take(length, what), start

    def finished(self) -> bool:
        return self.pos == len(self.data)


def _decode_content(codec: _FieldCodec, content: bytes, base: int, what: str) -> Any:
    kind = codec.kind
    if kind in (_KIND_U64, _KIND_BOOL, _KIND_ENUM):
        if len(content) != 8:
            raise DecodeError(f"{what}: integer content must be 8 bytes", base)
        value = struct.unpack(">Q", content)[0]
        if kind == _KIND_U64:
            return value
        if kind == _KIND_BOOL:
            if value > 1:
                raise DecodeError(f"{what}: boolean out of range", base)
            return bool(value)
        try:
            return codec.inner(value)
        except ValueError:
            raise DecodeError(f"{what}: {value} is not a valid {codec.inner.__name__}", base)
    if kind == _KIND_STR:
        try:
            return content.decode("utf-8")
        except UnicodeDecodeError:
            raise DecodeError(f"{what}: invalid UTF-8", base)
    if kind == _KIND_BYTES:
        return content
    if kind == _KIND_DIGEST:
        if len(content) != DIGEST_SIZE:
            raise DecodeError(f"{what}: digest must be {DIGEST_SIZE} bytes", base)
        return Digest(content)
    if kind == _KIND_NESTED:
        return _decode_fields(_BY_CLASS[codec.inner], _Reader(content, base))
    if kind == _KIND_LIST:
        reader = _Reader(content, base)
        count = reader.u32(f"{what} count")
        items = []
        for i in range(count):
            element, at = reader.field(f"{what}[{i}]")
            items.append(_decode_content(codec.inner, element, at, f"{what}[{i}]"))
        if not reader.finished():
            raise DecodeError(f"{what}: trailing bytes after sequence", reader.offset)
        return tuple(items)
    if kind == _KIND_OPTIONAL:
        reader = _Reader(content, base)
        count = reader.u32(f"{what} presence")
        if count > 1:
            raise DecodeError(f"{what}: optional count must be 0 or 1", base)
        value = None
        if count == 1:
            element, at = reader.field(what)
            value = _decode_content(codec.inner, element, at, what)
        if not reader.finished():
            raise DecodeError(f"{what}: trailing bytes after optional", reader.offset)
        return value
    raise DecodeError(f"{what}: unhandled kind {kind!r}", base)


def _decode_message(raw: bytes, base: int, expected: type | None) -> Any:
    reader = _Reader(raw, base)
    tag_bytes, tag_at = reader.field("type tag")
    try:
        tag = tag_bytes.decode("utf-8")
    except UnicodeDecodeError:
        raise DecodeError("type tag is not valid UTF-8", tag_at)
    schema = _BY_TAG.get(tag)
    if schema is None:
        raise MessageTypeError(f"unknown message type tag {tag!r}", tag_at)
    if expected is not None and schema.cls is not expected:
        raise MessageTypeError(
            f"expected {expected.__name__}, found {tag}", tag_at
        )
    return _decode_fields(schema, reader)


def _decode_fields(schema: _Schema, reader: _Reader) -> Any:
    """Read every field of ``schema`` and nothing more; build the message."""
    values = {}
    for name, codec in schema.fields:
        content, at = reader.field(f"{schema.tag}.{name}")
        values[name] = _decode_content(codec, content, at, f"{schema.tag}.{name}")
    if not reader.finished():
        raise DecodeError("trailing bytes after message", reader.offset)
    try:
        return schema.cls(**values)
    except (ValidationError, ValueError) as exc:
        raise DecodeError(f"{schema.tag} invariant violated: {exc}", reader.base)


def decode(raw: bytes, expected: type[M] | None = None) -> M:
    """Decode one complete message; ``expected`` pins the required type."""
    if not isinstance(raw, (bytes, bytearray)):
        raise DecodeError("decode expects bytes")
    return _decode_message(bytes(raw), 0, expected)


def peek_type(raw: bytes) -> str:
    """Type tag of an encoded message without decoding the body."""
    reader = _Reader(bytes(raw))
    tag_bytes, tag_at = reader.field("type tag")
    try:
        return tag_bytes.decode("utf-8")
    except UnicodeDecodeError:
        raise DecodeError("type tag is not valid UTF-8", tag_at)


def decode_stream(raw: bytes) -> list[Any]:
    """Decode a back-to-back sequence of messages (e.g. a transcript file)."""
    out = []
    pos = 0
    data = bytes(raw)
    while pos < len(data):
        reader = _Reader(data[pos:], pos)
        tag_bytes, _ = reader.field("type tag")
        tag = tag_bytes.decode("utf-8", errors="replace")
        schema = _BY_TAG.get(tag)
        if schema is None:
            raise DecodeError(f"unknown message type tag {tag!r}", pos)
        for name, _codec in schema.fields:
            reader.field(f"{tag}.{name}")
        end = pos + reader.pos
        out.append(_decode_message(data[pos:end], pos, schema.cls))
        pos = end
    return out


# Crypto value types travel inside protocol messages, so they join the
# registry here rather than having the crypto layer depend on the codec.
from .crypto import DualSignature, SealedEnvelope, Signature  # noqa: E402

register_message(Signature)
register_message(SealedEnvelope)
register_message(DualSignature)
