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
X25519 half of the private key into a seal key once, which computes its
public half; the ``KeyPair`` it returns keeps the seal key, which
``open_envelope`` and ``mac_keys`` use.  So a parsed key lives exactly as
long as the pair that holds it, and nothing here keeps keys for
identities a process has seen.  The key classes are looked up in this
module's globals at call time, so a stand-in that counts parses sees
every one.

Two libraries serve every primitive.  libsodium, through ``ctypes``,
makes and checks the Ed25519 signatures on the raw key bytes, runs the
X25519 agreements (``crypto_scalarmult``) and AES-256-GCM
(``crypto_aead_aes256gcm``), and supplies the ChaCha20 keystream that
simulated objects are cut from.  Each binding declares its C signature
once, at import.  SHA-256, HMAC-SHA256 and HKDF-SHA256 come from the
standard library's ``hashlib`` and ``hmac``, which run on the system's
OpenSSL.  No gset module imports ``cryptography``: it bundles an OpenSSL
of its own, so a process would load two, at a few MiB of resident
memory.  Ed25519 and X25519 are deterministic and AES-GCM is a standard,
so every key, signature, tag and envelope is the same bytes any other
correct implementation makes.

Importing this module raises ``ImportError`` when the libsodium shared
library cannot be found or initialised, or when this CPU lacks the AES-NI
and CLMUL instructions libsodium's AES-256-GCM needs.

The pairwise MAC keys are not cached here: each actor keeps the keys it
shares with each peer for its own run (``actors._ActorBase.pair_keys``).

Two batch calls, ``hash_each`` and ``keystreams``, split a batch over two
cores.  Each item of a batch is one native call that releases the
interpreter lock while it runs: ``hashlib`` releases it for inputs of
2 KiB and more, and every ``ctypes`` call releases it.  So when a batch
holds at least ``_SPLIT_BYTES`` (128 KiB) and the process may run on more
than one CPU (``os.sched_getaffinity``), one helper thread takes the first
half of the items while the caller runs the second, and the results are
the bytes the plain loop gives.  Handing a half over and back costs about
15-25 µs: timed back to back on a 2-vCPU AMD EPYC VM, ``hash_each`` of
16 x 4 KiB took 35 µs whole and 40 µs split, of 16 x 8 KiB (128 KiB) 61
and 44 µs, and of 16 x 64 KiB 437 and 234 µs, so the threshold sits where
splitting starts to win.  Below it, on one CPU, or while another thread
holds the helper, the caller runs the whole batch itself.  The helper is
one daemon thread, started by the first batch that splits and reused
after; importing this module starts nothing.  The helper calls only
private names (``_sha256``, the libsodium binding and the two small
functions around them), never a public function such as ``hash_bytes``:
a tracer or a test that rebinds public names to count calls keeps one
stack of open calls, which a second thread would interleave.  The caller
makes every object a batch writes to, so the helper's thread makes no
large allocation of its own.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import hmac
import os
import struct
import threading
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Sequence, TypeVar

DIGEST_SIZE = 32
SIGNATURE_SIZE = 64
_KEY_SEGMENT = 32          # raw Ed25519 / X25519 key length
PUBLIC_KEY_SIZE = 2 * _KEY_SEGMENT
PRIVATE_KEY_SIZE = 2 * _KEY_SEGMENT
_ENVELOPE_KEY_SIZE = 32    # AES-256-GCM
_GCM_TAG_SIZE = 16
_GCM_NONCE_SIZE = 12
# Each envelope key seals exactly one message, so one fixed nonce serves.
_ENVELOPE_NONCE = bytes(_GCM_NONCE_SIZE)
U64_MAX = 2**64 - 1       # the largest value of an unsigned 64-bit integer
MAC_SIZE = 32              # HMAC-SHA256 tag length
_KEYSTREAM_NONCE_SIZE = 12  # ChaCha20 (IETF)

_SIGN_DERIVE_TAG = b"gset/keys/sign/v1"
_SEAL_DERIVE_TAG = b"gset/keys/seal/v1"
_ENVELOPE_INFO = b"gset/envelope/v1"
_MAC_INFO = b"gset/mac/v1"
_NO_SALT = bytes(DIGEST_SIZE)  # RFC 5869's salt when none is given

# No Ed25519 key object is made: libsodium signs and verifies on the raw
# key bytes.  The name stays bound only because perfbench's tracer installs
# its parse counter on it (ROADMAP item 4).
Ed25519PrivateKey = None

_SONAME = "libsodium.so.23"  # libsodium 1.0.18


def _load_sodium() -> ctypes.CDLL:
    """The initialised libsodium; ``ImportError`` names it when it is
    missing or unusable.

    The library is loaded by its soname first; only when that fails is
    ``ctypes.util`` imported to look for another, since its search runs
    ``ldconfig`` in a subprocess.  ``find_library`` returns None for a
    missing library, and ``CDLL(None)`` would load the running program
    itself instead of failing.
    """
    try:
        sodium = ctypes.CDLL(_SONAME)
        path = _SONAME
    except OSError:
        from ctypes.util import find_library

        path = find_library("sodium")
        if path is None:
            raise ImportError(
                "gset needs the libsodium shared library (>= 1.0.18); none was found"
            ) from None
        try:
            sodium = ctypes.CDLL(path)
        except OSError as exc:
            raise ImportError(f"gset cannot load libsodium from {path}: {exc}") from exc
    if sodium.sodium_init() < 0:
        raise ImportError(f"libsodium from {path} failed to initialise")
    if not sodium.crypto_aead_aes256gcm_is_available():
        raise ImportError(
            "libsodium's AES-256-GCM needs a CPU with AES-NI and CLMUL, and this one lacks them"
        )
    return sodium


def _bind(name: str, *argtypes) -> ctypes._CFuncPtr:
    """libsodium's ``name``, declared to take ``argtypes`` and return an int."""
    fn = getattr(_sodium, name)
    fn.argtypes = argtypes
    fn.restype = ctypes.c_int
    return fn


_sodium = _load_sodium()
# One array type for every signature buffer, built here: an array type is
# cyclic garbage once dropped, so one built per call would leave some
# behind each signature.
_SignatureBuffer = ctypes.c_char * SIGNATURE_SIZE
_crypto_sign_detached = _bind(
    "crypto_sign_detached",
    _SignatureBuffer,      # sig
    ctypes.c_void_p,       # siglen_p, NULL: always 64
    ctypes.c_char_p,       # m
    ctypes.c_ulonglong,    # mlen
    ctypes.c_char_p,       # sk: the 32-byte seed, then the 32-byte public key
)
_crypto_sign_verify_detached = _bind(
    "crypto_sign_verify_detached",
    ctypes.c_char_p,       # sig
    ctypes.c_char_p,       # m
    ctypes.c_ulonglong,    # mlen
    ctypes.c_char_p,       # pk
)
# The buffers of a seed key pair, built here for the reason above.  A
# 32-byte key buffer also takes an X25519 public key or shared secret.
_PublicKeyBuffer = ctypes.c_char * _KEY_SEGMENT
_SecretKeyBuffer = ctypes.c_char * (2 * _KEY_SEGMENT)
_crypto_sign_seed_keypair = _bind(
    "crypto_sign_seed_keypair",
    _PublicKeyBuffer,      # pk
    _SecretKeyBuffer,      # sk: the seed, then pk again
    ctypes.c_char_p,       # seed: 32 bytes
)
_crypto_scalarmult_base = _bind(
    "crypto_scalarmult_base",
    _PublicKeyBuffer,      # q: the public key
    ctypes.c_char_p,       # n: the 32-byte private scalar
)
_crypto_scalarmult = _bind(
    "crypto_scalarmult",
    _PublicKeyBuffer,      # q: the shared secret; -1 when it is all zeros
    ctypes.c_char_p,       # n: the 32-byte private scalar
    ctypes.c_char_p,       # p: the peer's 32-byte public key
)
_crypto_aead_aes256gcm_encrypt = _bind(
    "crypto_aead_aes256gcm_encrypt",
    ctypes.c_char_p,       # c: out, mlen + 16 bytes
    ctypes.c_void_p,       # clen_p, NULL: always mlen + 16
    ctypes.c_char_p,       # m
    ctypes.c_ulonglong,    # mlen
    ctypes.c_char_p,       # ad
    ctypes.c_ulonglong,    # adlen
    ctypes.c_void_p,       # nsec, NULL: unused
    ctypes.c_char_p,       # npub: the 12-byte nonce
    ctypes.c_char_p,       # k: the 32-byte key
)
_crypto_aead_aes256gcm_decrypt = _bind(
    "crypto_aead_aes256gcm_decrypt",
    ctypes.c_char_p,       # m: out, clen - 16 bytes; -1 when the tag fails
    ctypes.c_void_p,       # mlen_p, NULL: always clen - 16
    ctypes.c_void_p,       # nsec, NULL: unused
    ctypes.c_char_p,       # c
    ctypes.c_ulonglong,    # clen
    ctypes.c_char_p,       # ad
    ctypes.c_ulonglong,    # adlen
    ctypes.c_char_p,       # npub: the 12-byte nonce
    ctypes.c_char_p,       # k: the 32-byte key
)
_crypto_stream_chacha20_ietf = _bind(
    "crypto_stream_chacha20_ietf",
    ctypes.c_char_p,       # c: out, clen bytes: a new bytes object's own
    ctypes.c_ulonglong,    # clen
    ctypes.c_char_p,       # n: the 12-byte nonce
    ctypes.c_char_p,       # k: the 32-byte key
)
# A keystream is written straight into the bytes object that holds it: the
# C API lets the maker of a bytes object made from NULL fill it before any
# other code sees it, and ``c_char_p`` passes a bytes object's own buffer.
# So no ctypes array, and no copy out of one, comes between libsodium and
# the object.  Declared on a function object of this module's own, not on
# ``ctypes.pythonapi``'s shared one.
_PyBytes_FromStringAndSize = ctypes.pythonapi["PyBytes_FromStringAndSize"]
_PyBytes_FromStringAndSize.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t)
_PyBytes_FromStringAndSize.restype = ctypes.py_object


@functools.lru_cache(maxsize=64)
def _buffer_type(size: int) -> type:
    """The array type of a ``size``-byte output buffer, kept per size for the
    reason given at ``_SignatureBuffer``."""
    return ctypes.c_char * size


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


class X25519PrivateKey:
    """An X25519 private scalar and its public half, computed once when the
    scalar is parsed."""

    __slots__ = ("_scalar", "public_bytes")

    def __init__(self, scalar: bytes, public_bytes: bytes) -> None:
        self._scalar = scalar
        self.public_bytes = public_bytes

    @classmethod
    def from_private_bytes(cls, data: bytes) -> X25519PrivateKey:
        """Parse a raw 32-byte scalar; ``ValueError`` on any other length."""
        if not isinstance(data, bytes) or len(data) != _KEY_SEGMENT:
            raise ValueError("an X25519 private key is 32 bytes")
        public = _PublicKeyBuffer()
        if _crypto_scalarmult_base(public, data) != 0:
            raise CryptoError("libsodium failed to derive an X25519 public key")
        return cls(data, public.raw)

    def exchange(self, peer_public_bytes: bytes) -> bytes:
        """The secret agreed with a peer's raw 32-byte public key.

        Raises ``ValueError`` on a key of another length and on a low-order
        point, whose agreement is all zeros; X25519 ignores a public key's
        top bit.
        """
        if not isinstance(peer_public_bytes, bytes) or len(peer_public_bytes) != _KEY_SEGMENT:
            raise ValueError("an X25519 public key is 32 bytes")
        shared = _PublicKeyBuffer()
        if _crypto_scalarmult(shared, self._scalar, peer_public_bytes) != 0:
            raise ValueError("a low-order X25519 point gives an all-zero secret")
        return shared.raw


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
    return hashlib.sha256(data).digest()


_BYTES_LIKE = (bytes, bytearray, memoryview)


def _checked_sha256(data: bytes) -> bytes:
    if not isinstance(data, _BYTES_LIKE):
        raise TypeError("hash_bytes expects bytes")
    return _sha256(data)


def hash_bytes(data: bytes) -> Digest:
    """SHA-256 of ``data`` as a :class:`Digest`."""
    return Digest(_checked_sha256(data))


def hash_each(items: Sequence[bytes]) -> tuple[Digest, ...]:
    """``hash_bytes`` of each item, in order; a batch of 128 KiB or more is
    split over two cores (see the module docstring)."""
    total = sum(len(item) for item in items if isinstance(item, _BYTES_LIKE))
    return tuple(map(Digest, _halves(_checked_sha256, items, total)))


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
    public = sign_public.raw + seal_key.public_bytes
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


def _hkdf_extract(secret: bytes) -> bytes:
    """HKDF-Extract (RFC 5869) with SHA-256 and no salt."""
    return hmac.digest(_NO_SALT, secret, "sha256")


def _hkdf_expand(prk: bytes, info: bytes) -> bytes:
    """The 32 bytes of HKDF-Expand's first block: HMAC(prk, info || 0x01)."""
    return hmac.digest(prk, info + b"\x01", "sha256")


def _mac_key(prk: bytes, sender_id: str, receiver_id: str) -> bytes:
    """HKDF-Expand of the extracted secret ``prk`` for one direction."""
    return _hkdf_expand(prk, _MAC_INFO + _framed_id(sender_id) + _framed_id(receiver_id))


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
        shared = own.seal_key.exchange(peer_public_key[_KEY_SEGMENT:])
    except ValueError:  # a low-order peer point gives an all-zero secret
        return None
    prk = _hkdf_extract(shared)
    return (
        _mac_key(prk, own.subject_id, peer_id),
        _mac_key(prk, peer_id, own.subject_id),
    )


def mac(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 of ``message`` under one directional key from ``mac_keys``."""
    return hmac.digest(key, message, "sha256")


def mac_ok(key: bytes, message: bytes, tag: bytes) -> bool:
    """True iff ``tag`` is the HMAC-SHA256 of ``message`` under ``key``.

    A malformed tag yields False rather than raising; the comparison takes
    the same time wherever the tags differ.
    """
    if not isinstance(tag, bytes) or len(tag) != MAC_SIZE:
        return False
    return hmac.compare_digest(hmac.digest(key, message, "sha256"), tag)


def _rand_bytes(rng: Random | None, n: int) -> bytes:
    if rng is None:
        return os.urandom(n)
    return rng.randbytes(n)


def _check_gcm_inputs(key: bytes, nonce: bytes) -> None:
    """libsodium reads 32 key bytes and 12 nonce bytes whatever it is passed."""
    if len(key) != _ENVELOPE_KEY_SIZE or len(nonce) != _GCM_NONCE_SIZE:
        raise ValueError("AES-256-GCM takes a 32-byte key and a 12-byte nonce")


def _aes256gcm_encrypt(key: bytes, nonce: bytes, plaintext: bytes, ad: bytes) -> bytes:
    """AES-256-GCM: the ciphertext of ``plaintext`` followed by its 16-byte
    tag, which also covers the associated data ``ad``."""
    _check_gcm_inputs(key, nonce)
    out = _buffer_type(len(plaintext) + _GCM_TAG_SIZE)()
    if _crypto_aead_aes256gcm_encrypt(
        out, None, plaintext, len(plaintext), ad, len(ad), None, nonce, key
    ) != 0:
        raise CryptoError("libsodium failed to encrypt")
    return out.raw


def _aes256gcm_decrypt(key: bytes, nonce: bytes, ciphertext: bytes, ad: bytes) -> bytes | None:
    """The plaintext of an AES-256-GCM ``ciphertext`` and tag, or None when
    the tag does not verify or there is no whole tag."""
    _check_gcm_inputs(key, nonce)
    if len(ciphertext) < _GCM_TAG_SIZE:
        return None
    out = _buffer_type(len(ciphertext) - _GCM_TAG_SIZE)()
    if _crypto_aead_aes256gcm_decrypt(
        out, None, None, ciphertext, len(ciphertext), ad, len(ad), nonce, key
    ) != 0:
        return None
    return out.raw


def _envelope_key(shared: bytes, recipient: bytes) -> bytes:
    """The one key of an envelope: HKDF-SHA256 of the X25519 secret, no
    salt, bound to the recipient id."""
    return _hkdf_expand(_hkdf_extract(shared), _ENVELOPE_INFO + recipient)


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
    ephemeral_key = ephemeral.public_bytes
    shared = ephemeral.exchange(recipient_public_key[_KEY_SEGMENT:])
    ciphertext = _aes256gcm_encrypt(
        _envelope_key(shared, recipient), _ENVELOPE_NONCE, bytes(plaintext),
        recipient + ephemeral_key,
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
        shared = key.seal_key.exchange(envelope.ephemeral_key)
    except ValueError as exc:
        raise EnvelopeIntegrityError("envelope failed authenticated decryption") from exc
    plaintext = _aes256gcm_decrypt(
        _envelope_key(shared, recipient), _ENVELOPE_NONCE, envelope.ciphertext,
        recipient + envelope.ephemeral_key,
    )
    if plaintext is None:
        raise EnvelopeIntegrityError("envelope failed authenticated decryption")
    return plaintext


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


def _check_keystream_key(key: bytes) -> None:
    if not isinstance(key, bytes) or len(key) != _KEY_SEGMENT:
        raise ValueError("a keystream key is 32 bytes")


def _unfilled(size: int) -> bytes:
    """A new ``size``-byte bytes object, not yet filled; see
    ``_PyBytes_FromStringAndSize``."""
    if size < 0:
        raise ValueError("a keystream size is not negative")
    return _PyBytes_FromStringAndSize(None, size)


def _fill_keystream(out: bytes, nonce: int, key: bytes) -> int:
    """libsodium's status after writing the keystream under ``nonce`` into
    ``out``, a bytes object from ``_unfilled`` that no other code has seen."""
    return _crypto_stream_chacha20_ietf(
        out, len(out), nonce.to_bytes(_KEYSTREAM_NONCE_SIZE, "big"), key
    )


def keystream(key: bytes, nonce: int, size: int) -> bytes:
    """``size`` bytes of the ChaCha20 (IETF) keystream under the 32-byte
    ``key`` and the nonce ``nonce``, a 96-bit big-endian integer."""
    _check_keystream_key(key)
    out = _unfilled(size)
    if _fill_keystream(out, nonce, key) != 0:
        raise CryptoError("libsodium failed to make a keystream")
    return out


def keystreams(key: bytes, count: int, size: int) -> tuple[bytes, ...]:
    """``keystream(key, i, size)`` for each nonce ``i`` below ``count``; a
    batch of 128 KiB or more is split over two cores (see the module
    docstring)."""
    _check_keystream_key(key)
    outs = tuple(_unfilled(size) for _ in range(count))

    def fill(nonce: int) -> int:
        return _fill_keystream(outs[nonce], nonce, key)

    if any(_halves(fill, range(count), count * size)):
        raise CryptoError("libsodium failed to make a keystream")
    return outs


# --- splitting a batch over two cores ------------------------------------------

_SPLIT_BYTES = 128 * 1024
# Monkeypatched off by the tests to take the one-CPU path.
_CAN_SPLIT = len(os.sched_getaffinity(0)) > 1
_T = TypeVar("_T")
_R = TypeVar("_R")


class _Helper:
    """One daemon thread that runs the first half of a batch while the
    caller runs the second.

    ``_busy`` is held by the one caller that owns the helper; ``_go`` hands
    a half over and ``_done`` hands its results, or the exception it
    raised, back.
    """

    def __init__(self) -> None:
        self._busy = threading.Lock()
        self._go = threading.Lock()
        self._go.acquire()
        self._done = threading.Lock()
        self._done.acquire()
        self._job: tuple[Callable, Sequence] | None = None
        self._out: list | Exception | None = None
        threading.Thread(target=self._serve, name="gset-halves", daemon=True).start()

    def _serve(self) -> None:
        while True:
            self._go.acquire()
            fn, items = self._job
            try:
                self._out = [fn(item) for item in items]
            except Exception as exc:  # raised again on the caller's thread
                self._out = exc
            self._done.release()

    def split(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> list[_R] | None:
        """``fn`` of each item, in order, or None when another thread holds
        the helper.  A failing item raises what the plain loop would: the
        first half's exception before the second's.  An interrupt while the
        halves run leaves the helper held, so from then on every batch runs
        whole on its caller's thread."""
        if not self._busy.acquire(blocking=False):
            return None
        half = len(items) // 2
        self._job = fn, items[:half]
        self._go.release()
        try:
            second = [fn(item) for item in items[half:]]
        except Exception as exc:
            second = exc
        self._done.acquire()
        first, self._job, self._out = self._out, None, None
        self._busy.release()
        for part in (first, second):
            if isinstance(part, Exception):
                raise part
        return first + second


_helper: _Helper | None = None
_helper_lock = threading.Lock()  # held while the helper is made


def _forget_helper() -> None:
    """A forked child has no helper thread, whatever its parent had, and no
    thread that holds the lock its parent made the helper under."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


def _halves(fn: Callable[[_T], _R], items: Sequence[_T], total: int) -> list[_R]:
    """``fn`` of each item, in order; a batch of ``total`` bytes of at least
    ``_SPLIT_BYTES`` runs half on the helper thread when it can.  ``fn``
    must call only private names (see the module docstring)."""
    global _helper
    if _CAN_SPLIT and total >= _SPLIT_BYTES and len(items) > 1:
        with _helper_lock:
            if _helper is None:
                _helper = _Helper()
        results = _helper.split(fn, items)
        if results is not None:
            return results
    return [fn(item) for item in items]
