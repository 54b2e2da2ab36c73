"""Cryptographic building blocks for the gSET toolkit.

Everything a protocol actor needs to establish identity and protect
messages lives here:

* deterministic keypair generation from a 64-bit seed, so simulation
  runs are reproducible byte for byte,
* SHA-256 digests,
* Ed25519 signatures,
* pairwise HMAC-SHA256 tags between two servers that hold each other's
  public keys, under one key per direction,
* sealed envelopes (a fresh symmetric key per message, wrapped to the
  recipient's public key, with authenticated encryption throughout),
* dual signatures binding an order description to a payment description
  while letting each verifier see only its own half.

Key material is carried as opaque byte strings: the public half is the
Ed25519 verify key concatenated with the X25519 key-agreement key, and
the private half mirrors that layout.  Certificate infrastructure is out
of scope; callers distribute public keys through a trusted in-memory
directory populated when a simulation is set up.

``sign``, ``verify``, ``open_envelope`` and ``mac_keys`` keep the last few
parsed key objects (Ed25519, and X25519 private) in one small LRU keyed by
the parser and the raw 32 key bytes, so the handful of identities active in
one transaction are parsed once each; ``seal``'s one-shot ephemeral key is
not cached.  The parser is part of the key: a private and a public key
never share an entry, and a key class swapped for a stand-in (one that
counts parses, say) starts from an empty cache instead of being handed
objects the old class parsed.  The parsed objects are deliberately not
kept on ``KeyPair`` or cached per identity: callers keep keys for many
identities alive at once (the scenario key cache holds every public key it
ever derived), and parsed key objects for each would grow memory with every
identity rather than with the few in use.  A malformed key raises on
parse and is never cached, so ``verify`` returns False for it every time.

The pairwise MAC keys are not cached here: each actor keeps the keys it
shares with each peer for its own run (``actors._ActorBase.pair_keys``).

Every primitive, SHA-256 and HMAC-SHA256 included, comes from the one
``cryptography`` library.  No gset module imports ``hashlib`` or ``hmac``:
either would load the system's libcrypto beside the OpenSSL that
``cryptography`` bundles, at a few MiB of resident memory.  The
private half of a key pair is two SHA-256 derivations
(``derive_private_key``) and the public half two scalar multiplications,
so the scenario key cache keeps only each identity's 64-byte public key
and derives the private half again on each use.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Any, Callable

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes, hmac
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

DIGEST_SIZE = 32
SIGNATURE_SIZE = 64
_KEY_SEGMENT = 32          # raw Ed25519 / X25519 key length
PUBLIC_KEY_SIZE = 2 * _KEY_SEGMENT
PRIVATE_KEY_SIZE = 2 * _KEY_SEGMENT
_GCM_NONCE_SIZE = 12
_GCM_TAG_SIZE = 16
_CEK_SIZE = 32
_WRAPPED_KEY_SIZE = _KEY_SEGMENT + _GCM_NONCE_SIZE + _CEK_SIZE + _GCM_TAG_SIZE
_U64_MAX = 2**64 - 1
MAC_SIZE = 32              # HMAC-SHA256 tag length
_KEY_CACHE_SIZE = 16       # parsed keys kept by sign, verify, open_envelope, mac_keys

_SIGN_DERIVE_TAG = b"gset/keys/sign/v1"
_SEAL_DERIVE_TAG = b"gset/keys/seal/v1"
_ENVELOPE_INFO = b"gset/envelope/v1"
_MAC_INFO = b"gset/mac/v1"
_SHA256 = hashes.SHA256()


class CryptoError(Exception):
    """Base class for failures raised by this module."""


class InvalidIdentityError(CryptoError):
    """A subject identity label was empty or otherwise unusable."""


class MissingKeyError(CryptoError):
    """An operation needed private key material that is not present."""


class EnvelopeError(CryptoError):
    """Base class for sealed-envelope failures."""


class WrongRecipientError(EnvelopeError):
    """The envelope is addressed to a different subject."""


class EnvelopeIntegrityError(EnvelopeError):
    """The envelope failed authenticated decryption (tampered or mis-keyed)."""


@dataclass(frozen=True)
class Digest:
    """A 32-byte SHA-256 digest."""

    bytes: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.bytes, bytes) or len(self.bytes) != DIGEST_SIZE:
            raise ValueError("digest must be exactly 32 bytes")

    def hex(self) -> str:
        return self.bytes.hex()


@dataclass(frozen=True)
class Signature:
    """A detached signature plus the identity label of its signer."""

    bytes: bytes
    signer_id: str

    def __post_init__(self) -> None:
        if not isinstance(self.bytes, bytes) or not self.bytes:
            raise ValueError("signature bytes must be non-empty")
        if not isinstance(self.signer_id, str) or not self.signer_id:
            raise ValueError("signer_id must be a non-empty string")


@dataclass(frozen=True)
class SealedEnvelope:
    """Hybrid-encrypted payload that opens only for the named recipient.

    ``ciphertext`` is the payload under a fresh content key; ``wrapped_key``
    carries that content key wrapped to the recipient's public key.  Both
    parts are authenticated, so any bit flip fails on open.
    """

    recipient_id: str
    ciphertext: bytes
    wrapped_key: bytes

    def __post_init__(self) -> None:
        if not self.recipient_id:
            raise ValueError("recipient_id must be non-empty")
        if not self.ciphertext or not self.wrapped_key:
            raise ValueError("envelope parts must be non-empty")


@dataclass(frozen=True)
class DualSignature:
    """Signature binding an order half to a payment half.

    The signed message is ``hash(oi_digest || pi_digest)``, so a holder of
    the order plaintext can verify against ``pi_digest``, and a holder of the
    payment plaintext against ``oi_digest``, without either side seeing the
    other's plaintext.
    """

    oi_digest: Digest
    pi_digest: Digest
    signature: Signature


@dataclass(frozen=True)
class KeyPair:
    """Key material bound to a subject identity label."""

    public_key: bytes
    private_key: bytes
    subject_id: str


def _sha256(data: bytes) -> bytes:
    digest = hashes.Hash(_SHA256)
    digest.update(data)
    return digest.finalize()


def hash_bytes(data: bytes) -> Digest:
    """SHA-256 of ``data`` as a :class:`Digest`."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError("hash_bytes expects bytes")
    return Digest(_sha256(data))


def _derive_seed(tag: bytes, subject_id: str, seed: int) -> bytes:
    subject = subject_id.encode("utf-8")
    return _sha256(tag + struct.pack(">I", len(subject)) + subject + struct.pack(">Q", seed))


def derive_private_key(subject_id: str, seed: int) -> bytes:
    """The private half of ``generate_keypair(subject_id, seed)``.

    Two SHA-256 derivations and no key parse: the raw Ed25519 signing
    seed followed by the raw X25519 seal key.
    """
    if not isinstance(subject_id, str) or not subject_id:
        raise InvalidIdentityError("subject_id must be a non-empty string")
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= _U64_MAX:
        raise ValueError("seed must be an unsigned 64-bit integer")
    return (
        _derive_seed(_SIGN_DERIVE_TAG, subject_id, seed)
        + _derive_seed(_SEAL_DERIVE_TAG, subject_id, seed)
    )


def generate_keypair(subject_id: str, seed: int) -> KeyPair:
    """Derive a keypair for ``subject_id`` from a 64-bit seed.

    The same (subject_id, seed) pair always yields the same key material,
    which keeps simulation transcripts reproducible.  Distinct subjects or
    seeds diverge at the first derivation step.
    """
    private = derive_private_key(subject_id, seed)
    sign_key = Ed25519PrivateKey.from_private_bytes(private[:_KEY_SEGMENT])
    seal_key = X25519PrivateKey.from_private_bytes(private[_KEY_SEGMENT:])
    public = sign_key.public_key().public_bytes_raw() + seal_key.public_key().public_bytes_raw()
    return KeyPair(public_key=public, private_key=private, subject_id=subject_id)


def _require_private(key: KeyPair) -> bytes:
    if len(key.private_key) != PRIVATE_KEY_SIZE:
        raise MissingKeyError(f"no private key material for {key.subject_id!r}")
    return key.private_key


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _parsed_key(parse: Callable[[bytes], Any], raw: bytes) -> Any:
    """``parse(raw)``, remembered for the last few (parser, raw key) pairs."""
    return parse(raw)


def sign(key: KeyPair, message: bytes) -> Signature:
    """Sign ``message`` with the subject's signing key."""
    private = _require_private(key)
    signer = _parsed_key(Ed25519PrivateKey.from_private_bytes, private[:_KEY_SEGMENT])
    return Signature(bytes=signer.sign(bytes(message)), signer_id=key.subject_id)


def verify(public_key: bytes, message: bytes, sig: Signature) -> bool:
    """True iff ``sig`` is a valid signature on ``message`` under ``public_key``.

    Malformed keys or signatures yield False rather than raising; a failed
    verification is an expected protocol outcome, not an exception.
    """
    if not isinstance(public_key, bytes) or len(public_key) != PUBLIC_KEY_SIZE:
        return False
    if not isinstance(sig, Signature) or len(sig.bytes) != SIGNATURE_SIZE:
        return False
    try:
        verifier = _parsed_key(Ed25519PublicKey.from_public_bytes, public_key[:_KEY_SEGMENT])
        verifier.verify(sig.bytes, bytes(message))
    except (InvalidSignature, ValueError):
        return False
    return True


def _framed_id(subject_id: str) -> bytes:
    subject = subject_id.encode("utf-8")
    return struct.pack(">I", len(subject)) + subject


def _mac_key(shared: bytes, sender_id: str, receiver_id: str) -> bytes:
    return HKDF(
        algorithm=hashes.SHA256(),
        length=MAC_SIZE,
        salt=None,
        info=_MAC_INFO + _framed_id(sender_id) + _framed_id(receiver_id),
    ).derive(shared)


def mac_keys(
    own: KeyPair, peer_id: str, peer_public_key: bytes | None
) -> tuple[bytes, bytes] | None:
    """The two directional MAC keys ``own`` shares with ``peer_id``.

    Returns ``(key own -> peer, key peer -> own)`` from one X25519 agreement
    of the two seal keys; each is HKDF-SHA256 of the shared secret with info
    ``gset/mac/v1`` followed by the length-prefixed sender and receiver ids.
    The peer derives the same two keys in the other order, and no key serves
    two directions or two pairs.  A missing or malformed peer key yields
    None rather than raising, as ``verify`` yields False.
    """
    private = _require_private(own)
    if not isinstance(peer_public_key, bytes) or len(peer_public_key) != PUBLIC_KEY_SIZE:
        return None
    try:
        seal_key = _parsed_key(X25519PrivateKey.from_private_bytes, private[_KEY_SEGMENT:])
        peer_seal_key = X25519PublicKey.from_public_bytes(peer_public_key[_KEY_SEGMENT:])
        shared = seal_key.exchange(peer_seal_key)
    except ValueError:  # a low-order peer point gives an all-zero secret
        return None
    return (
        _mac_key(shared, own.subject_id, peer_id),
        _mac_key(shared, peer_id, own.subject_id),
    )


def _hmac_sha256(key: bytes, message: bytes) -> hmac.HMAC:
    tagger = hmac.HMAC(key, _SHA256)
    tagger.update(message)
    return tagger


def mac(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 of ``message`` under one directional key from ``mac_keys``."""
    return _hmac_sha256(key, message).finalize()


def mac_ok(key: bytes, message: bytes, tag: bytes) -> bool:
    """True iff ``tag`` is the HMAC-SHA256 of ``message`` under ``key``.

    A malformed tag yields False rather than raising; the comparison takes
    the same time wherever the tags differ.
    """
    if not isinstance(tag, bytes) or len(tag) != MAC_SIZE:
        return False
    try:
        _hmac_sha256(key, message).verify(tag)
    except InvalidSignature:
        return False
    return True


def _rand_bytes(rng: Random | None, n: int) -> bytes:
    if rng is None:
        return os.urandom(n)
    return rng.randbytes(n)


def seal(
    recipient_public_key: bytes,
    recipient_id: str,
    plaintext: bytes,
    rng: Random | None = None,
) -> SealedEnvelope:
    """Seal ``plaintext`` so that only ``recipient_id`` can open it.

    A fresh content key encrypts the payload; an ephemeral key agreement
    against the recipient's public key wraps the content key.  Passing a
    seeded ``rng`` makes the envelope reproducible for simulation; two
    calls still never produce identical envelopes because the randomness
    stream advances.
    """
    if not recipient_id:
        raise InvalidIdentityError("recipient_id must be non-empty")
    if not isinstance(recipient_public_key, bytes) or len(recipient_public_key) != PUBLIC_KEY_SIZE:
        raise ValueError("recipient public key must be 64 bytes")
    if not plaintext:
        raise ValueError("plaintext must be non-empty")

    aad = recipient_id.encode("utf-8")
    cek = _rand_bytes(rng, _CEK_SIZE)
    payload_nonce = _rand_bytes(rng, _GCM_NONCE_SIZE)
    ciphertext = payload_nonce + AESGCM(cek).encrypt(payload_nonce, bytes(plaintext), aad)

    ephemeral = X25519PrivateKey.from_private_bytes(_rand_bytes(rng, _KEY_SEGMENT))
    recipient_seal_key = X25519PublicKey.from_public_bytes(
        recipient_public_key[_KEY_SEGMENT:]
    )
    shared = ephemeral.exchange(recipient_seal_key)
    kek = HKDF(
        algorithm=hashes.SHA256(),
        length=_CEK_SIZE,
        salt=None,
        info=_ENVELOPE_INFO + aad,
    ).derive(shared)
    wrap_nonce = _rand_bytes(rng, _GCM_NONCE_SIZE)
    eph_pub = ephemeral.public_key().public_bytes_raw()
    # the exact ephemeral key bytes ride along as AAD: X25519 masks the top
    # u-coordinate bit, so without this one wire bit would be unauthenticated
    wrapped = AESGCM(kek).encrypt(wrap_nonce, cek, aad + eph_pub)
    wrapped_key = eph_pub + wrap_nonce + wrapped
    return SealedEnvelope(
        recipient_id=recipient_id, ciphertext=ciphertext, wrapped_key=wrapped_key
    )


def open_envelope(key: KeyPair, envelope: SealedEnvelope) -> bytes:
    """Open a sealed envelope addressed to ``key.subject_id``.

    Raises:
        WrongRecipientError: the envelope names a different subject.
        EnvelopeIntegrityError: authenticated decryption failed, which
            covers tampered bytes and mismatched key material alike.
    """
    if envelope.recipient_id != key.subject_id:
        raise WrongRecipientError(
            f"envelope for {envelope.recipient_id!r}, not {key.subject_id!r}"
        )
    private = _require_private(key)
    if len(envelope.wrapped_key) != _WRAPPED_KEY_SIZE:
        raise EnvelopeIntegrityError("wrapped key has the wrong shape")
    if len(envelope.ciphertext) <= _GCM_NONCE_SIZE:
        raise EnvelopeIntegrityError("ciphertext too short")

    aad = envelope.recipient_id.encode("utf-8")
    eph_pub = envelope.wrapped_key[:_KEY_SEGMENT]
    wrap_nonce = envelope.wrapped_key[_KEY_SEGMENT:_KEY_SEGMENT + _GCM_NONCE_SIZE]
    wrapped = envelope.wrapped_key[_KEY_SEGMENT + _GCM_NONCE_SIZE:]
    try:
        seal_key = _parsed_key(X25519PrivateKey.from_private_bytes, private[_KEY_SEGMENT:])
        shared = seal_key.exchange(X25519PublicKey.from_public_bytes(eph_pub))
        kek = HKDF(
            algorithm=hashes.SHA256(),
            length=_CEK_SIZE,
            salt=None,
            info=_ENVELOPE_INFO + aad,
        ).derive(shared)
        cek = AESGCM(kek).decrypt(wrap_nonce, wrapped, aad + eph_pub)
        payload_nonce = envelope.ciphertext[:_GCM_NONCE_SIZE]
        body = envelope.ciphertext[_GCM_NONCE_SIZE:]
        return AESGCM(cek).decrypt(payload_nonce, body, aad)
    except (InvalidTag, ValueError) as exc:
        raise EnvelopeIntegrityError("envelope failed authenticated decryption") from exc


def _linked(oi_digest: Digest, pi_digest: Digest) -> bytes:
    """The message a dual signature signs: ``hash(oi_digest || pi_digest)``."""
    return hash_bytes(oi_digest.bytes + pi_digest.bytes).bytes


def make_dual_signature(key: KeyPair, order_info: bytes, payment_info: bytes) -> DualSignature:
    """Bind order bytes and payment bytes under one signature.

    Only the two digests and the signature leave this function; callers
    decide which plaintext half travels where.
    """
    if not order_info or not payment_info:
        raise ValueError("order_info and payment_info must be non-empty")
    oi_digest = hash_bytes(order_info)
    pi_digest = hash_bytes(payment_info)
    return DualSignature(
        oi_digest=oi_digest,
        pi_digest=pi_digest,
        signature=sign(key, _linked(oi_digest, pi_digest)),
    )


def verify_with_oi(public_key: bytes, order_info: bytes, dual: DualSignature) -> bool:
    """Verify a dual signature holding the order plaintext.

    The payment half is known only through ``dual.pi_digest``.
    """
    if hash_bytes(order_info) != dual.oi_digest:
        return False
    return verify(public_key, _linked(dual.oi_digest, dual.pi_digest), dual.signature)


def verify_with_pi(public_key: bytes, payment_info: bytes, dual: DualSignature) -> bool:
    """Verify a dual signature holding the payment plaintext.

    The order half is known only through ``dual.oi_digest``.
    """
    if hash_bytes(payment_info) != dual.pi_digest:
        return False
    return verify(public_key, _linked(dual.oi_digest, dual.pi_digest), dual.signature)
