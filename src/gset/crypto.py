"""Cryptographic building blocks for the gSET toolkit.

Everything a protocol actor needs to establish identity and protect
messages lives here:

* deterministic keypair generation from a 64-bit seed, so simulation
  runs are reproducible byte for byte,
* SHA-256 digests,
* Ed25519 signatures,
* pairwise HMAC-SHA256 tags between two servers that hold each other's
  public keys, under one key per direction,
* sealed envelopes: one ephemeral X25519 agreement with the recipient's
  public key, and AES-GCM under the key derived from it,
* dual signatures over the digests of an order half and a payment half,
  each checked by a holder of one half with the other half's digest.

Key material is carried as opaque byte strings: the public half is the
Ed25519 verify key concatenated with the X25519 key-agreement key, and
the private half mirrors that layout.  Certificate infrastructure is out
of scope; callers distribute public keys through a trusted in-memory
directory populated when a simulation is set up.

``generate_keypair`` takes the Ed25519 public key from libsodium's
``crypto_sign_seed_keypair`` on the raw 32-byte seed, and parses the
X25519 half of the private key into a seal key once, to compute its
public half; the ``KeyPair`` it returns keeps the seal key, which
``open_envelope`` and ``mac_keys`` use.  So a parsed key lives exactly as
long as the pair that holds it, and nothing here keeps keys for
identities a process has seen.  The key classes are looked up in this
module's globals at call time, so a stand-in that counts parses sees
every one.  No Ed25519 key object is made: ``Ed25519PrivateKey`` stays
bound here only so that a parse counter installed on it finds the name.

``sign`` and ``verify`` call libsodium's ``crypto_sign_detached`` and
``crypto_sign_verify_detached`` through ``ctypes`` and parse no key
object: libsodium takes the raw 32-byte seed and public key.  Ed25519 is
deterministic, so its keys and signatures are the same bytes any other
correct implementation makes.  Importing this module raises
``ImportError`` when the libsodium shared library cannot be found or
initialised.

The pairwise MAC keys are not cached here: each actor keeps the keys it
shares with each peer for its own run (``actors._ActorBase.pair_keys``).

Every other primitive, SHA-256 and HMAC-SHA256 included, comes from the
``cryptography`` library.  No gset module imports ``hashlib`` or ``hmac``:
either would load the system's libcrypto beside the OpenSSL that
``cryptography`` bundles, at a few MiB of resident memory.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import struct
from dataclasses import dataclass, field
from random import Random

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes, hmac
# Unused here; see the module docstring.
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF, HKDFExpand

DIGEST_SIZE = 32
SIGNATURE_SIZE = 64
_KEY_SEGMENT = 32          # raw Ed25519 / X25519 key length
PUBLIC_KEY_SIZE = 2 * _KEY_SEGMENT
PRIVATE_KEY_SIZE = 2 * _KEY_SEGMENT
_ENVELOPE_KEY_SIZE = 32    # AES-256-GCM
# Each envelope key seals exactly one message, so one fixed nonce serves.
_ENVELOPE_NONCE = bytes(12)
U64_MAX = 2**64 - 1       # the largest value of an unsigned 64-bit integer
MAC_SIZE = 32              # HMAC-SHA256 tag length

_SIGN_DERIVE_TAG = b"gset/keys/sign/v1"
_SEAL_DERIVE_TAG = b"gset/keys/seal/v1"
_ENVELOPE_INFO = b"gset/envelope/v1"
_MAC_INFO = b"gset/mac/v1"
_SHA256 = hashes.SHA256()
# Copying an empty context costs less than setting up a new one.
_EMPTY_SHA256 = hashes.Hash(_SHA256)


def _load_sodium() -> ctypes.CDLL:
    """The initialised libsodium; ``ImportError`` names it when it is missing.

    ``find_library`` returns None for a missing library, and ``CDLL(None)``
    would load the running program itself instead of failing.
    """
    path = ctypes.util.find_library("sodium")
    if path is None:
        raise ImportError("gset needs the libsodium shared library (>= 1.0.18); none was found")
    try:
        sodium = ctypes.CDLL(path)
    except OSError as exc:
        raise ImportError(f"gset cannot load libsodium from {path}: {exc}") from exc
    if sodium.sodium_init() < 0:
        raise ImportError(f"libsodium from {path} failed to initialise")
    return sodium


_sodium = _load_sodium()
# One array type for every signature buffer, built here: an array type is
# cyclic garbage once dropped, so one built per call would leave some
# behind each signature.
_SignatureBuffer = ctypes.c_char * SIGNATURE_SIZE
_crypto_sign_detached = _sodium.crypto_sign_detached
_crypto_sign_detached.argtypes = (
    _SignatureBuffer,      # sig
    ctypes.c_void_p,       # siglen_p, NULL: always 64
    ctypes.c_char_p,       # m
    ctypes.c_ulonglong,    # mlen
    ctypes.c_char_p,       # sk: the 32-byte seed, then the 32-byte public key
)
_crypto_sign_detached.restype = ctypes.c_int
_crypto_sign_verify_detached = _sodium.crypto_sign_verify_detached
_crypto_sign_verify_detached.argtypes = (
    ctypes.c_char_p,       # sig
    ctypes.c_char_p,       # m
    ctypes.c_ulonglong,    # mlen
    ctypes.c_char_p,       # pk
)
_crypto_sign_verify_detached.restype = ctypes.c_int
# The buffers of a seed key pair, built here for the reason above.
_PublicKeyBuffer = ctypes.c_char * _KEY_SEGMENT
_SecretKeyBuffer = ctypes.c_char * (2 * _KEY_SEGMENT)
_crypto_sign_seed_keypair = _sodium.crypto_sign_seed_keypair
_crypto_sign_seed_keypair.argtypes = (
    _PublicKeyBuffer,      # pk
    _SecretKeyBuffer,      # sk: the seed, then pk again
    ctypes.c_char_p,       # seed: 32 bytes
)
_crypto_sign_seed_keypair.restype = ctypes.c_int


class CryptoError(Exception):
    """Base class for failures raised by this module."""


class InvalidIdentityError(CryptoError):
    """A subject identity label was empty or otherwise unusable."""


class EnvelopeError(CryptoError):
    """Base class for sealed-envelope failures."""


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
    """A payload that opens only for the recipient it was sealed to.

    ``ephemeral_key`` is the sender's one-use X25519 public key;
    ``ciphertext`` is the payload and its GCM tag under the key agreed with
    it.  Both parts are authenticated, so any bit flip fails on open.
    """

    ephemeral_key: bytes
    ciphertext: bytes

    def __post_init__(self) -> None:
        if not self.ephemeral_key or not self.ciphertext:
            raise ValueError("envelope parts must be non-empty")


@dataclass(frozen=True)
class KeyPair:
    """Key material bound to a subject identity label, with the X25519 half
    of ``private_key`` as parsed by ``generate_keypair``; the parsed seal
    key takes no part in equality.  The Ed25519 halves stay raw bytes:
    libsodium derived the public one from the seed, and ``sign`` reads
    both."""

    public_key: bytes
    private_key: bytes
    subject_id: str
    seal_key: X25519PrivateKey = field(compare=False, repr=False)


def _sha256(data: bytes) -> bytes:
    digest = _EMPTY_SHA256.copy()
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


def generate_keypair(subject_id: str, seed: int) -> KeyPair:
    """Derive a keypair for ``subject_id`` from a 64-bit seed.

    The same (subject_id, seed) pair always yields the same key material,
    which keeps simulation transcripts reproducible.  Distinct subjects or
    seeds diverge at the first derivation step.  The private half is two
    SHA-256 derivations: the raw Ed25519 signing seed followed by the raw
    X25519 seal key.
    """
    if not isinstance(subject_id, str) or not subject_id:
        raise InvalidIdentityError("subject_id must be a non-empty string")
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= U64_MAX:
        raise ValueError("seed must be an unsigned 64-bit integer")
    private = (
        _derive_seed(_SIGN_DERIVE_TAG, subject_id, seed)
        + _derive_seed(_SEAL_DERIVE_TAG, subject_id, seed)
    )
    sign_public = _PublicKeyBuffer()
    if _crypto_sign_seed_keypair(sign_public, _SecretKeyBuffer(), private[:_KEY_SEGMENT]) != 0:
        raise CryptoError("libsodium failed to derive a signing key")
    seal_key = X25519PrivateKey.from_private_bytes(private[_KEY_SEGMENT:])
    public = sign_public.raw + seal_key.public_key().public_bytes_raw()
    return KeyPair(public, private, subject_id, seal_key)


def sign(key: KeyPair, message: bytes) -> Signature:
    """Sign ``message`` with the subject's Ed25519 key."""
    message = bytes(message)
    signature = _SignatureBuffer()
    secret = key.private_key[:_KEY_SEGMENT] + key.public_key[:_KEY_SEGMENT]
    if _crypto_sign_detached(signature, None, message, len(message), secret) != 0:
        raise CryptoError("libsodium failed to sign")
    return Signature(bytes=signature.raw, signer_id=key.subject_id)


def verify(public_key: bytes, message: bytes, sig: Signature) -> bool:
    """True iff ``sig`` is a valid signature on ``message`` under ``public_key``.

    Malformed keys or signatures yield False rather than raising; a failed
    verification is an expected protocol outcome, not an exception.
    libsodium also refuses a key of small order and a signature whose
    scalar is not reduced, so no signature verifies under the identity
    point.
    """
    if not isinstance(public_key, bytes) or len(public_key) != PUBLIC_KEY_SIZE:
        return False
    if not isinstance(sig, Signature) or len(sig.bytes) != SIGNATURE_SIZE:
        return False
    message = bytes(message)
    return _crypto_sign_verify_detached(
        sig.bytes, message, len(message), public_key[:_KEY_SEGMENT]
    ) == 0


def _framed_id(subject_id: str) -> bytes:
    subject = subject_id.encode("utf-8")
    return struct.pack(">I", len(subject)) + subject


def _mac_key(prk: bytes, sender_id: str, receiver_id: str) -> bytes:
    """HKDF-Expand of the extracted secret ``prk`` for one direction."""
    return HKDFExpand(
        algorithm=_SHA256,
        length=MAC_SIZE,
        info=_MAC_INFO + _framed_id(sender_id) + _framed_id(receiver_id),
    ).derive(prk)


def mac_keys(
    own: KeyPair, peer_id: str, peer_public_key: bytes | None
) -> tuple[bytes, bytes] | None:
    """The two directional MAC keys ``own`` shares with ``peer_id``.

    Returns ``(key own -> peer, key peer -> own)`` from one X25519 agreement
    of the two seal keys; each is HKDF-SHA256 of the shared secret with info
    ``gset/mac/v1`` followed by the length-prefixed sender and receiver ids.
    The two keys share one HKDF-Extract (no salt: RFC 5869's string of
    zeros), and each direction is one HKDF-Expand of it.
    The peer derives the same two keys in the other order, and no key serves
    two directions or two pairs.  A missing or malformed peer key yields
    None rather than raising, as ``verify`` yields False.
    """
    if not isinstance(peer_public_key, bytes) or len(peer_public_key) != PUBLIC_KEY_SIZE:
        return None
    try:
        peer_seal_key = X25519PublicKey.from_public_bytes(peer_public_key[_KEY_SEGMENT:])
        shared = own.seal_key.exchange(peer_seal_key)
    except ValueError:  # a low-order peer point gives an all-zero secret
        return None
    prk = _hmac_sha256(bytes(_SHA256.digest_size), shared).finalize()  # HKDF-Extract
    return (
        _mac_key(prk, own.subject_id, peer_id),
        _mac_key(prk, peer_id, own.subject_id),
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


def _envelope_key(shared: bytes, recipient: bytes) -> bytes:
    """The one key of an envelope: HKDF-SHA256 of the X25519 secret, no
    salt, bound to the recipient id."""
    hkdf = HKDF(_SHA256, _ENVELOPE_KEY_SIZE, salt=None, info=_ENVELOPE_INFO + recipient)
    return hkdf.derive(shared)


def seal(
    recipient_public_key: bytes,
    recipient_id: str,
    plaintext: bytes,
    rng: Random | None = None,
) -> SealedEnvelope:
    """Seal ``plaintext`` so that only ``recipient_id`` can open it.

    One ephemeral X25519 agreement with the recipient's public key yields
    the AES-GCM key, which encrypts the payload under the all-zero nonce.
    The associated data is the recipient id followed by the exact ephemeral
    key bytes: X25519 masks the top bit of a public key, so without them
    one wire bit would be unauthenticated.  Passing a seeded ``rng`` makes
    the envelope reproducible for simulation; two calls still never produce
    identical envelopes because the randomness stream advances.
    """
    if not recipient_id:
        raise InvalidIdentityError("recipient_id must be non-empty")
    if not isinstance(recipient_public_key, bytes) or len(recipient_public_key) != PUBLIC_KEY_SIZE:
        raise ValueError("recipient public key must be 64 bytes")
    if not plaintext:
        raise ValueError("plaintext must be non-empty")

    recipient = recipient_id.encode("utf-8")
    ephemeral = X25519PrivateKey.from_private_bytes(_rand_bytes(rng, _KEY_SEGMENT))
    ephemeral_key = ephemeral.public_key().public_bytes_raw()
    shared = ephemeral.exchange(
        X25519PublicKey.from_public_bytes(recipient_public_key[_KEY_SEGMENT:])
    )
    ciphertext = AESGCM(_envelope_key(shared, recipient)).encrypt(
        _ENVELOPE_NONCE, bytes(plaintext), recipient + ephemeral_key
    )
    return SealedEnvelope(ephemeral_key=ephemeral_key, ciphertext=ciphertext)


def open_envelope(key: KeyPair, envelope: SealedEnvelope) -> bytes:
    """Open a sealed envelope as its recipient ``key.subject_id``.

    Raises:
        EnvelopeIntegrityError: authenticated decryption failed, which
            covers tampered bytes, an envelope sealed to another subject
            and mismatched key material alike.
    """
    recipient = key.subject_id.encode("utf-8")
    try:
        shared = key.seal_key.exchange(X25519PublicKey.from_public_bytes(envelope.ephemeral_key))
        return AESGCM(_envelope_key(shared, recipient)).decrypt(
            _ENVELOPE_NONCE, envelope.ciphertext, recipient + envelope.ephemeral_key
        )
    except (InvalidTag, ValueError) as exc:
        raise EnvelopeIntegrityError("envelope failed authenticated decryption") from exc


def _linked(oi_digest: Digest, pi_digest: Digest) -> bytes:
    """The message a dual signature signs: ``hash(oi_digest || pi_digest)``."""
    if not isinstance(oi_digest, Digest) or not isinstance(pi_digest, Digest):
        raise TypeError("a dual signature links two digests")
    return hash_bytes(oi_digest.bytes + pi_digest.bytes).bytes


def make_dual_signature(key: KeyPair, oi_digest: Digest, pi_digest: Digest) -> Signature:
    """Bind an order half and a payment half under one signature, by their digests."""
    return sign(key, _linked(oi_digest, pi_digest))


def verify_dual(public_key: bytes, oi_digest: Digest, pi_digest: Digest, sig: Signature) -> bool:
    """Is ``sig`` a dual signature on the two digests?  A verifier hashes the
    half it holds, and takes the other half's digest as it was sent."""
    return verify(public_key, _linked(oi_digest, pi_digest), sig)
