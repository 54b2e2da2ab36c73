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
  as a length-prefixed field; optional values are a sequence of zero or one,
* a mapping is a 4-byte big-endian entry count followed by each entry, its
  key field and then its value field, and a set the same with key fields
  alone, the entries in ascending order of their bytes, so hash order never
  reaches the wire and each collection has one encoding.

Decoding accepts exactly the image of encoding.  Trailing bytes, truncated
input, unknown type tags, out-of-range values, entries out of order or
repeated, and messages whose own invariants fail are all rejected, with the
byte offset of the problem where one is known.

``register_message`` compiles each field's type, once, into an encoder and
a decoder closure, so no call dispatches on a field's kind.  An encoder
appends length prefixes and contents to one chunk list, which is joined
once per message, so a large byte field is copied once rather than once per
level of framing.  A decoder reads the one input buffer at absolute
offsets and slices only leaf values, except that a ``Bulk`` leaf is not
copied at all: it decodes as a read-only view of the received frame, and
its encoder appends such a view as it is.  The wire format is the one above.

A field annotated with a kind (``Nonce``, ``Mac``, ``Label``, ``U64``,
``Positive``) encodes and decodes as its base type, and carries a rule: a
nonce or a MAC has its one size, a label is non-empty, an amount fits in 64
bits and a ``Positive`` one is at least 1.  ``canonical_message`` runs each
field's rule when a message is constructed, so at the sender and, through
decoding, at the receiver; a type's ``validate`` method states only what
no kind states, such as what relates one field to another.  Each rule is
stated once, here: the messages, the transcript types of ``gset.simnet``
and the scenario config, which ``check`` checks, declare kinds.

A trailing signature or MAC covers the type tag and every field before it,
which is the leading part of the message's own encoding.  So
``encode_authenticated`` encodes that part once, authenticates it and
appends the authenticator, and ``decode_authenticated`` hands a receiver
that part of the bytes it received: the bytes sent are the bytes
authenticated, and neither end encodes a message a second time.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
import types
import typing
from typing import Any, Callable, TypeVar

from .crypto import DIGEST_SIZE, MAC_SIZE, U64_MAX, Digest

U32_MAX = 2**32 - 1  # the most content a 4-byte length prefix counts
NONCE_SIZE = 16

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


# --- compiled field codecs --------------------------------------------------
#
# register_message turns each field type, once, into a pair of closures.
# An encoder appends one whole field, length prefix and content, to the
# chunk list ``out`` and returns the number of bytes it appended; a leaf
# knows its length up front, a container reserves its length slot and
# fills it in after its content.  A decoder reads the content
# ``data[start:stop]`` of one field in place, through absolute offsets, so
# error offsets need no translation and only leaves are sliced.  ``what``
# names the value in error messages.

Encoder = Callable[[Any, list, str], int]
Decoder = Callable[[bytes, int, int, str], Any]

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_PACK_U32 = _U32.pack
_PACK_U64_FIELD = struct.Struct(">IQ").pack  # length 8, then the value
_BOOL_FIELDS = (_PACK_U64_FIELD(8, 0), _PACK_U64_FIELD(8, 1))
_ABSENT_FIELD = struct.pack(">II", 4, 0)  # an optional holding nothing


def _put(content: bytes, out: list) -> int:
    """Append one leaf field; returns the bytes appended."""
    if len(content) > U32_MAX:
        raise EncodeError("field content exceeds 4-byte length prefix")
    out.append(_PACK_U32(len(content)))
    out.append(content)
    return 4 + len(content)


def _close(out: list, slot: int, n: int) -> int:
    """Fill in the length slot ``out[slot]`` for ``n`` content bytes after it."""
    if n > U32_MAX:
        raise EncodeError("field content exceeds 4-byte length prefix")
    out[slot] = _PACK_U32(n)
    return 4 + n


def _field(data: bytes, pos: int, end: int, what: str) -> tuple[int, int]:
    """Bounds ``(start, stop)`` of the length-prefixed field at ``pos``."""
    if pos + 4 > end:
        raise DecodeError(f"truncated input reading {what} length", pos)
    start = pos + 4
    stop = start + _U32.unpack_from(data, pos)[0]
    if stop > end:
        raise DecodeError(f"truncated input reading {what}", start)
    return start, stop


def _encode_u64(value: Any, out: list, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise EncodeError(f"{what}: expected an unsigned integer")
    if not 0 <= value <= U64_MAX:
        raise EncodeError(f"{what}: {value} outside unsigned 64-bit range")
    out.append(_PACK_U64_FIELD(8, value))
    return 12


def _decode_u64(data: bytes, start: int, stop: int, what: str) -> int:
    if stop - start != 8:
        raise DecodeError(f"{what}: integer content must be 8 bytes", start)
    return _U64.unpack_from(data, start)[0]


def _encode_bool(value: Any, out: list, what: str) -> int:
    if not isinstance(value, bool):
        raise EncodeError(f"{what}: expected bool")
    out.append(_BOOL_FIELDS[value])
    return 12


def _decode_bool(data: bytes, start: int, stop: int, what: str) -> bool:
    value = _decode_u64(data, start, stop, what)
    if value > 1:
        raise DecodeError(f"{what}: boolean out of range", start)
    return bool(value)


def _encode_str(value: Any, out: list, what: str) -> int:
    if not isinstance(value, str):
        raise EncodeError(f"{what}: expected str")
    return _put(value.encode("utf-8"), out)


def _decode_str(data: bytes, start: int, stop: int, what: str) -> str:
    try:
        return data[start:stop].decode("utf-8")
    except UnicodeDecodeError:
        raise DecodeError(f"{what}: invalid UTF-8", start)


def _encode_bytes(value: Any, out: list, what: str) -> int:
    if not isinstance(value, (bytes, bytearray)):
        raise EncodeError(f"{what}: expected bytes")
    return _put(bytes(value), out)


def _decode_bytes(data: bytes, start: int, stop: int, what: str) -> bytes:
    return data[start:stop]


def _encode_bulk(value: Any, out: list, what: str) -> int:
    if isinstance(value, memoryview) and value.c_contiguous:
        return _put(value.cast("B"), out)  # a byte view, so len() counts bytes
    return _encode_bytes(value, out, what)


def _decode_bulk(data: bytes, start: int, stop: int, what: str) -> memoryview:
    return memoryview(data)[start:stop]


def _encode_digest(value: Any, out: list, what: str) -> int:
    if not isinstance(value, Digest):
        raise EncodeError(f"{what}: expected Digest")
    return _put(value.bytes, out)


def _decode_digest(data: bytes, start: int, stop: int, what: str) -> Digest:
    if stop - start != DIGEST_SIZE:
        raise DecodeError(f"{what}: digest must be {DIGEST_SIZE} bytes", start)
    return Digest(data[start:stop])


def _enum_codec(cls: type[enum.IntEnum]) -> tuple[Encoder, Decoder]:
    def encode_enum(value: Any, out: list, what: str) -> int:
        if not isinstance(value, cls):
            raise EncodeError(f"{what}: expected {cls.__name__}")
        out.append(_PACK_U64_FIELD(8, int(value)))
        return 12

    def decode_enum(data: bytes, start: int, stop: int, what: str) -> enum.IntEnum:
        value = _decode_u64(data, start, stop, what)
        try:
            return cls(value)
        except ValueError:
            raise DecodeError(f"{what}: {value} is not a valid {cls.__name__}", start)

    return encode_enum, decode_enum


def _nested_codec(schema: "_Schema") -> tuple[Encoder, Decoder]:
    cls = schema.cls
    write = schema.write
    read = schema.read

    def encode_nested(value: Any, out: list, what: str) -> int:
        if not isinstance(value, cls):
            raise EncodeError(f"{what}: expected {cls.__name__}")
        slot = len(out)
        out.append(b"")
        return _close(out, slot, write(value, out))

    def decode_nested(data: bytes, start: int, stop: int, what: str) -> Any:
        return read(data, start, stop, start)[0]

    return encode_nested, decode_nested


def _sequence_codec(element: tuple[Encoder, Decoder]) -> tuple[Encoder, Decoder]:
    encode_element, decode_element = element

    def encode_sequence(value: Any, out: list, what: str) -> int:
        if not isinstance(value, (tuple, list)):
            raise EncodeError(f"{what}: expected a sequence")
        if len(value) > U32_MAX:
            raise EncodeError(f"{what}: sequence too long")
        slot = len(out)
        out.append(b"")
        out.append(_PACK_U32(len(value)))
        n = 4
        for i, item in enumerate(value):
            n += encode_element(item, out, f"{what}[{i}]")
        return _close(out, slot, n)

    def decode_sequence(data: bytes, start: int, stop: int, what: str) -> tuple:
        if start + 4 > stop:
            raise DecodeError(f"truncated input reading {what} count", start)
        pos = start + 4
        items = []
        for i in range(_U32.unpack_from(data, start)[0]):
            label = f"{what}[{i}]"
            at, pos = _field(data, pos, stop, label)
            items.append(decode_element(data, at, pos, label))
        if pos != stop:
            raise DecodeError(f"{what}: trailing bytes after sequence", pos)
        return tuple(items)

    return encode_sequence, decode_sequence


def _collection_codec(
    key: tuple[Encoder, Decoder], value: tuple[Encoder, Decoder] | None, build: type
) -> tuple[Encoder, Decoder]:
    """A mapping (with ``value``) or a set (without), decoding as ``build``."""
    encode_key, decode_key = key
    encode_value, decode_value = value or (None, None)

    def encode_collection(collection: Any, out: list, what: str) -> int:
        if not isinstance(collection, dict if value else (set, frozenset)):
            raise EncodeError(f"{what}: expected a {build.__name__}")
        entries = []
        for item in collection:
            entry: list = []
            encode_key(item, entry, what)
            if value:
                encode_value(collection[item], entry, what)
            entries.append(b"".join(entry))
        entries.sort()
        slot = len(out)
        out += (b"", _PACK_U32(len(entries)), *entries)
        return _close(out, slot, 4 + sum(map(len, entries)))

    def decode_collection(data: bytes, start: int, stop: int, what: str) -> Any:
        if start + 4 > stop:
            raise DecodeError(f"truncated input reading {what} count", start)
        pos, items, previous = start + 4, [], b""
        for i in range(_U32.unpack_from(data, start)[0]):
            label = f"{what}[{i}]"
            at, end = _field(data, pos, stop, label)
            # key fields are never prefixes of one another, so ascending
            # key fields are ascending entries, with no key repeated
            if data[pos:end] <= previous:
                raise DecodeError(f"{what}: entries out of order or repeated", pos)
            previous, pos, item = data[pos:end], end, decode_key(data, at, end, label)
            if value:
                at, pos = _field(data, pos, stop, label)
                item = (item, decode_value(data, at, pos, label))
            items.append(item)
        if pos != stop:
            raise DecodeError(f"{what}: trailing bytes after {build.__name__}", pos)
        return build(items)

    return encode_collection, decode_collection


def _optional_codec(inner: tuple[Encoder, Decoder]) -> tuple[Encoder, Decoder]:
    encode_inner, decode_inner = inner

    def encode_optional(value: Any, out: list, what: str) -> int:
        if value is None:
            out.append(_ABSENT_FIELD)
            return 8
        slot = len(out)
        out.append(b"")
        out.append(_PACK_U32(1))
        return _close(out, slot, 4 + encode_inner(value, out, what))

    def decode_optional(data: bytes, start: int, stop: int, what: str) -> Any:
        if start + 4 > stop:
            raise DecodeError(f"truncated input reading {what} presence", start)
        count = _U32.unpack_from(data, start)[0]
        if count > 1:
            raise DecodeError(f"{what}: optional count must be 0 or 1", start)
        pos = start + 4
        value = None
        if count == 1:
            at, pos = _field(data, pos, stop, what)
            value = decode_inner(data, at, pos, what)
        if pos != stop:
            raise DecodeError(f"{what}: trailing bytes after optional", pos)
        return value

    return encode_optional, decode_optional


# A large byte field: it decodes as a read-only view of the received frame,
# which ``_input`` has made an immutable ``bytes``, so nothing else writes it.
Bulk = bytes | memoryview

# --- field kinds ---------------------------------------------------------------
#
# A kind is a base type with a rule: it encodes and decodes as its base type,
# and its rule, a test and the text of its failure, runs on every instance
# constructed, so on decode too.

Nonce = typing.NewType("Nonce", bytes)
Mac = typing.NewType("Mac", bytes)
Label = typing.NewType("Label", str)
U64 = typing.NewType("U64", int)
Positive = typing.NewType("Positive", int)


def _unsigned(value: Any, minimum: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and minimum <= value <= U64_MAX


_RULES: dict[Any, tuple[Callable[[Any], bool], str]] = {
    Nonce: (lambda v: isinstance(v, bytes) and len(v) == NONCE_SIZE, f"must be {NONCE_SIZE} bytes"),
    Mac: (lambda v: isinstance(v, bytes) and len(v) == MAC_SIZE, f"must be {MAC_SIZE} bytes"),
    Label: (lambda v: isinstance(v, str) and v != "", "must be non-empty"),
    U64: (lambda v: _unsigned(v, 0), "must be an unsigned 64-bit integer >= 0"),
    Positive: (lambda v: _unsigned(v, 1), "must be an unsigned 64-bit integer >= 1"),
}


def check(kind: Any, value: Any, what: str) -> None:
    """Raise ``ValidationError`` unless ``value`` keeps ``kind``'s rule."""
    ok, text = _RULES[kind]
    if not ok(value):
        raise ValidationError(f"{what} {text}")


_LEAVES: dict[Any, tuple[Encoder, Decoder]] = {
    bool: (_encode_bool, _decode_bool),
    int: (_encode_u64, _decode_u64),
    str: (_encode_str, _decode_str),
    bytes: (_encode_bytes, _decode_bytes),
    Bulk: (_encode_bulk, _decode_bulk),
    Digest: (_encode_digest, _decode_digest),
}


def _compile(tp: Any, owner: str) -> tuple[Encoder, Decoder]:
    """The encoder and decoder for a field annotated ``tp``."""
    if tp in _RULES:
        tp = tp.__supertype__
    leaf = _LEAVES.get(tp)
    if leaf is not None:
        return leaf
    if isinstance(tp, type) and issubclass(tp, enum.IntEnum):
        return _enum_codec(tp)
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        if len(args) != 1 or len(typing.get_args(tp)) != 2:
            raise TypeError(f"{owner}: only Optional[...] unions are encodable")
        return _optional_codec(_compile(args[0], owner))
    if origin in (dict, set, frozenset):  # dict[K, V], or set[K] with no value
        key, *value = (_compile(arg, owner) for arg in typing.get_args(tp))
        return _collection_codec(key, value[0] if value else None, origin)
    if origin in (tuple, list):
        args = typing.get_args(tp)
        if origin is tuple and (len(args) != 2 or args[1] is not Ellipsis):
            raise TypeError(f"{owner}: tuples must be homogeneous tuple[X, ...]")
        return _sequence_codec(_compile(args[0], owner))
    if isinstance(tp, type) and tp in _BY_CLASS:
        return _nested_codec(_BY_CLASS[tp])
    raise TypeError(f"{owner}: field type {tp!r} has no canonical encoding")


@dataclasses.dataclass(frozen=True)
class _Schema:
    cls: type
    tag: str
    tag_field: bytes  # the framed type-name field that leads a top-level message
    fields: tuple[tuple[str, str, Encoder], ...]  # (name, "Tag.name" label, encoder)
    authenticator: str | None  # trailing signature or MAC field, if any
    kind: Any  # that field's type, ``Signature`` or ``Mac``; None without one
    write: Callable[[Any, list], int]  # append every field
    # (data, pos, end, base) -> (message, offset of its last field)
    read: Callable[[bytes, int, int, int], tuple[Any, int]]


_BY_TAG: dict[str, _Schema] = {}
_BY_CLASS: dict[type, _Schema] = {}


def _compile_schema(
    cls: type, tag: str, compiled: list, authenticator: str | None, kind: Any
) -> _Schema:
    tag_bytes = tag.encode("utf-8")
    encoders = tuple((name, label, encoder) for name, label, encoder, _ in compiled)
    decoders = tuple((label, decoder) for _, label, _, decoder in compiled)

    def write(msg: Any, out: list) -> int:
        n = 0
        for name, label, encoder in encoders:
            n += encoder(getattr(msg, name), out, label)
        return n

    def read(data: bytes, pos: int, end: int, base: int) -> tuple[Any, int]:
        values = []
        last = pos
        for label, decoder in decoders:
            last = pos
            start, pos = _field(data, pos, end, label)
            values.append(decoder(data, start, pos, label))
        if pos != end:
            raise DecodeError("trailing bytes after message", pos)
        try:
            return cls(*values), last
        except (ValidationError, ValueError) as exc:
            raise DecodeError(f"{tag} invariant violated: {exc}", base)

    return _Schema(
        cls=cls,
        tag=tag,
        tag_field=_PACK_U32(len(tag_bytes)) + tag_bytes,
        fields=encoders,
        authenticator=authenticator,
        kind=kind,
        write=write,
        read=read,
    )


def _bulk_repr(msg: Any) -> str:
    """The dataclass repr of ``msg`` with each view shown as its bytes: a
    view's own repr names its address, which differs from run to run."""
    def shown(value: Any) -> Any:
        if isinstance(value, tuple):
            return tuple(map(shown, value))
        if isinstance(value, dict):
            return {key: shown(item) for key, item in value.items()}
        return bytes(value) if isinstance(value, memoryview) else value
    body = ", ".join(f"{f.name}={shown(getattr(msg, f.name))!r}" for f in dataclasses.fields(msg))
    return f"{type(msg).__qualname__}({body})"


def register_message(cls: type) -> type:
    """Register an existing dataclass with the canonical codec.

    Field order on the wire is the dataclass declaration order.  A trailing
    field of type Signature whose name ends in ``_signature``, or of kind
    ``Mac``, is the message's authenticator (a detached signature or a MAC)
    and is excluded from signing payloads; its type is recorded here, once,
    as the type's ``authenticator``.
    Each field's encoder and decoder are compiled here, once.
    """
    from .crypto import Signature  # local import keeps layering one-way

    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls.__name__} must be a dataclass")
    tag = cls.__name__
    if tag in _BY_TAG:
        raise TypeError(f"duplicate message tag {tag!r}")
    hints = typing.get_type_hints(cls)
    compiled = []
    for f in dataclasses.fields(cls):
        label = f"{tag}.{f.name}"
        compiled.append((f.name, label, *_compile(hints[f.name], label)))
    authenticator = kind = None
    if compiled:
        last_name = compiled[-1][0]
        last = hints[last_name]
        if last is Mac or (last_name.endswith("_signature") and last is Signature):
            authenticator, kind = last_name, last
    if any(Bulk in (tp, *typing.get_args(tp)) for tp in hints.values()):
        cls.__repr__ = _bulk_repr
    schema = _compile_schema(cls, tag, compiled, authenticator, kind)
    _BY_TAG[tag] = schema
    _BY_CLASS[cls] = schema
    return cls


def canonical_message(cls: type) -> type:
    """Declare a frozen dataclass message with canonical encoding.

    On construction the rule of each field annotated with a kind runs, in
    field order, and then the type's own ``validate`` method, when present,
    for what relates one field to another.  So an invariant-violating
    instance never exists and encoding need not check again; decoding
    constructs the instance, so the checks run there too.
    ``encode_authenticated`` encodes the field values first and constructs
    the instance last, so a violation raises before any byte is returned.
    """
    hints = typing.get_type_hints(cls)
    rules = tuple((name, *_RULES[tp]) for name, tp in hints.items() if tp in _RULES)
    validates = "validate" in cls.__dict__
    if rules or validates:
        def __post_init__(self) -> None:  # noqa: N807
            for name, ok, text in rules:
                if not ok(getattr(self, name)):
                    raise ValidationError(f"{name} {text}")
            if validates:
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


def encode(msg: Any) -> bytes:
    """Canonical bytes for ``msg``; raises if any invariant fails."""
    schema = _schema_for(type(msg))
    out = [schema.tag_field]
    schema.write(msg, out)
    return b"".join(out)


def signing_payload_from(cls: type, values: dict[str, Any]) -> bytes:
    """Signing payload for ``cls`` built from field values, authenticator excluded.

    A signature and a MAC cover the same bytes: the type tag and every
    field before the trailing authenticator.
    """
    schema = _schema_for(cls)
    if schema.authenticator is None:
        raise EncodeError(f"{schema.tag} carries no signature or MAC")
    out = [schema.tag_field]
    for name, label, encoder in schema.fields:
        if name == schema.authenticator:
            continue
        if name not in values:
            raise EncodeError(f"{label} missing from signing payload")
        encoder(values[name], out, label)
    return b"".join(out)


def signing_payload(msg: Any) -> bytes:
    """Signing payload of an authenticated message instance (authenticator excluded).

    A receiver has the payload of a top-level message as received
    (``decode_authenticated``); this re-encoding serves a message nested
    inside another, whose own type tag is not on the wire.
    """
    schema = _schema_for(type(msg))
    values = {name: getattr(msg, name) for name, _, _ in schema.fields}
    return signing_payload_from(type(msg), values)


def encode_authenticated(
    cls: type[M], values: dict[str, Any], authenticate: Callable[[bytes], Any]
) -> tuple[M, bytes]:
    """Construct ``cls`` from ``values`` and its authenticator, and encode it once.

    ``authenticate`` gets the signing payload (``signing_payload_from``) and
    returns the trailing field's value.  The payload is also the leading
    part of the encoding, so the whole message is that payload followed by
    the authenticator field: the bytes sent are the bytes authenticated.
    Returns the message and its canonical encoding.
    """
    schema = _schema_for(cls)
    payload = signing_payload_from(cls, values)
    value = authenticate(payload)
    msg = cls(**values, **{schema.authenticator: value})
    _, label, encoder = schema.fields[-1]
    out = [payload]
    encoder(value, out, label)
    return msg, b"".join(out)


def authenticator(cls: type) -> Any:
    """How ``cls`` is authenticated: ``Signature``, ``Mac``, or None for a
    type with no trailing authenticator."""
    return _schema_for(cls).kind


def authenticator_field_name(cls: type) -> str:
    """Name of the trailing ``*_signature`` or ``Mac`` field of ``cls``."""
    schema = _schema_for(cls)
    if schema.authenticator is None:
        raise EncodeError(f"{schema.tag} carries no signature or MAC")
    return schema.authenticator


# --- decoding ---------------------------------------------------------------


def _read_tag(data: bytes, pos: int, end: int) -> tuple[str, int, int]:
    """The type tag of the message at ``pos``, its offset and where fields start."""
    start, stop = _field(data, pos, end, "type tag")
    try:
        return data[start:stop].decode("utf-8"), start, stop
    except UnicodeDecodeError:
        raise DecodeError("type tag is not valid UTF-8", start)


def _decode_message(
    data: bytes, pos: int, end: int, expected: type | None
) -> tuple[Any, _Schema, int]:
    """The message at ``data[pos:end]``, its schema and where its last field starts."""
    tag, tag_at, fields_at = _read_tag(data, pos, end)
    schema = _BY_TAG.get(tag)
    if schema is None:
        raise MessageTypeError(f"unknown message type tag {tag!r}", tag_at)
    if expected is not None and schema.cls is not expected:
        raise MessageTypeError(
            f"expected {expected.__name__}, found {tag}", tag_at
        )
    msg, last = schema.read(data, fields_at, end, pos)
    return msg, schema, last


def _input(raw: bytes) -> bytes:
    if not isinstance(raw, (bytes, bytearray)):
        raise DecodeError("decode expects bytes")
    return bytes(raw)


def decode(raw: bytes, expected: type[M] | None = None) -> M:
    """Decode one complete message; ``expected`` pins the required type."""
    data = _input(raw)
    return _decode_message(data, 0, len(data), expected)[0]


def decode_authenticated(raw: bytes) -> tuple[Any, memoryview | None]:
    """Decode one message, and the part of ``raw`` its authenticator covers.

    That part is the received type tag and every field before the trailing
    ``*_signature`` or ``Mac``.  Decoding accepts only canonical bytes, so
    it equals ``signing_payload(msg)``: a receiver checks the bytes it
    received instead of encoding them again.  It is a view of ``raw``, so a
    large message is not copied; None for a type with no authenticator.
    """
    data = _input(raw)
    msg, schema, last = _decode_message(data, 0, len(data), None)
    if schema.authenticator is None:
        return msg, None
    return msg, memoryview(data)[:last]


def peek_type(raw: bytes) -> str:
    """Type tag of an encoded message without decoding the body."""
    data = bytes(raw)
    return _read_tag(data, 0, len(data))[0]


def decode_stream(raw: bytes) -> list[Any]:
    """Decode a back-to-back sequence of messages (e.g. a transcript file)."""
    out = []
    pos = 0
    data = bytes(raw)
    end = len(data)
    while pos < end:
        start, stop = _field(data, pos, end, "type tag")
        tag = data[start:stop].decode("utf-8", errors="replace")
        schema = _BY_TAG.get(tag)
        if schema is None:
            raise DecodeError(f"unknown message type tag {tag!r}", pos)
        for _name, label, _encoder in schema.fields:
            _, stop = _field(data, stop, end, label)
        out.append(_decode_message(data, pos, stop, schema.cls)[0])
        pos = stop
    return out


# Crypto value types travel inside protocol messages, so they join the
# registry here rather than having the crypto layer depend on the codec.
from .crypto import SealedEnvelope, Signature  # noqa: E402

register_message(Signature)
register_message(SealedEnvelope)
