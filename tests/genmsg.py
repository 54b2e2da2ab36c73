"""Random well-formed instances of every registered codec type, for the tests.

``random_message(cls, rng)`` compiles the type hints of ``cls``, the ones
``codec.register_message`` compiles, once into one draw per field, so a new
type needs no code here.  A kind (``Nonce``, ``Mac``, ``Label``, ``U64``,
``Positive``) draws only values its rule accepts; a draw the type's own
``__post_init__`` or ``validate`` refuses is retried, up to ``RETRIES`` times.
Leaves and collections take their edge values now and then: 0 (1 for a
``Positive``), ``""``, ``b""``, and empty tuples, dicts and sets.

A ``Ledger`` is the one override: random holds would almost never name a
drawn account, so it is made by its own calls instead, and reaches open,
settled, released and refused holds.
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import types
import typing
from random import Random
from typing import Any, Callable

from gset import Digest, codec
from gset.codec import U64, Bulk, Label, Mac, Nonce, Positive, ValidationError
from gset.crypto import DIGEST_SIZE, MAC_SIZE
from gset.ledger import Ledger

RETRIES = 100
EDGE = 0.1  # how often an integer, a str or a bytes leaf takes its edge value

Draw = Callable[[Random], Any]

_LABEL_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."


def _label(rng: Random) -> str:
    body = "".join(rng.choices(_LABEL_CHARS, k=1 + int(rng.random() * 12)))
    # a sprinkling of non-ASCII keeps the utf-8 path honest
    if rng.random() < 0.05:
        body += chr(rng.randint(0x00A1, 0x024F))
    return body


def _blob(rng: Random) -> bytes:
    n = int(rng.random() * 70) - 6  # 1 to 63 bytes, or none one time in ten
    return rng.randbytes(n) if n > 0 else b""


def _unsigned(minimum: int) -> Draw:
    def draw(rng: Random) -> int:
        r = rng.random()
        # mostly small, so arithmetic-looking values appear, but the top octets too
        return minimum if r < EDGE else max(minimum, rng.getrandbits(17 if r < 0.7 else 64))
    return draw


_LEAVES: dict[Any, Draw] = {
    Nonce: lambda rng: rng.randbytes(codec.NONCE_SIZE),
    Mac: lambda rng: rng.randbytes(MAC_SIZE),
    Label: _label,
    U64: _unsigned(0),
    Positive: _unsigned(1),
    int: _unsigned(0),
    bool: lambda rng: rng.random() < 0.5,
    str: lambda rng: "" if rng.random() < EDGE else _label(rng),
    bytes: _blob,
    Bulk: _blob,
    Digest: lambda rng: Digest(rng.randbytes(DIGEST_SIZE)),
}


def _count(rng: Random) -> int:
    return int(rng.random() * 3)  # zero to two entries: empty a third of the time


def _compile(tp: Any) -> Draw:
    """One draw of a field annotated ``tp``, read as ``codec._compile`` reads it."""
    if tp in _LEAVES:
        return _LEAVES[tp]
    if isinstance(tp, type) and issubclass(tp, enum.IntEnum):
        members = tuple(tp)
        return lambda rng: rng.choice(members)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # Optional[X]
        inner = _compile(args[0])
        return lambda rng: inner(rng) if rng.random() < 0.5 else None
    if origin in (tuple, set):  # tuple[X, ...] or set[X]
        element = _compile(args[0])
        return lambda rng: origin(element(rng) for _ in range(_count(rng)))
    if origin is dict:
        key, value = map(_compile, args)
        return lambda rng: {key(rng): value(rng) for _ in range(_count(rng))}
    return _builder(tp)


def _ledger(rng: Random) -> Ledger:
    """A ledger made by ``open_account``, ``place_hold`` and ``settle_hold``
    or ``release_hold`` calls.  A hold now and then names no account, reuses
    a name or asks more than the account has, and is refused."""
    ledger = Ledger()
    accounts = [
        ledger.open_account(f"{i}/{_label(rng)}", _LEAVES[Positive](rng))
        for i in range(_count(rng))
    ]
    names: list[bytes] = []
    for _ in range(int(rng.random() * 5)):
        if accounts and rng.random() < 0.9:
            account = rng.choice(accounts)
        else:
            account = Digest(rng.randbytes(DIGEST_SIZE))
        name = rng.choice(names) if names and rng.random() < 0.1 else rng.randbytes(16)
        ledger.place_hold(account, _LEAVES[Positive](rng), name)
        names.append(name)
    for name in names:
        close = rng.choice((ledger.settle_hold, ledger.release_hold, None))
        if close is not None:
            close(name)
    return ledger


# Types drawn by code of their own in place of their hints.
_OVERRIDES: dict[type, Draw] = {Ledger: _ledger}


@functools.cache
def _builder(cls: type) -> Draw:
    """The draw of the registered type ``cls``, compiled on first use."""
    if cls in _OVERRIDES:
        return _OVERRIDES[cls]
    hints = typing.get_type_hints(cls)
    draws = tuple(_compile(hints[f.name]) for f in dataclasses.fields(cls))

    def build(rng: Random) -> Any:
        for _ in range(RETRIES):
            try:
                return cls(*[draw(rng) for draw in draws])
            except (ValidationError, ValueError):
                pass
        raise RuntimeError(f"no {cls.__name__} passed its own checks in {RETRIES} draws")
    return build


def random_message(cls: type, rng: Random):
    """An instance of the registered type ``cls`` that passes its own checks."""
    return _builder(cls)(rng)


def flip_bit(raw: bytes, bit_index: int) -> bytes:
    """Flip one bit, MSB-first within the byte at bit_index // 8."""
    i, r = divmod(bit_index, 8)
    out = bytearray(raw)
    out[i] ^= 0x80 >> r
    return bytes(out)
