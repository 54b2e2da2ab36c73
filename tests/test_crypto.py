"""Identity, hashing, signing, envelope, and split-signature behavior."""
from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import hmac
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PublicKey
from hypothesis import given, settings
from hypothesis import strategies as st

import gset.crypto
from gset import (
    MAC_SIZE,
    Digest,
    EnvelopeIntegrityError,
    HoldRequest,
    InvalidIdentityError,
    SettleRequest,
    Signature,
    generate_keypair,
    hash_bytes,
    mac,
    mac_keys,
    mac_ok,
    make_dual_signature,
    open_envelope,
    seal,
    sign,
    verify,
    verify_dual,
)
from gset.codec import encode, signing_payload_from
from gset.crypto import PRIVATE_KEY_SIZE, PUBLIC_KEY_SIZE
from gset.messages import UploadManifest, verify_maced

from genmsg import flip_bit


# --- keypairs ---------------------------------------------------------------


def test_keypair_carries_subject_id():
    assert generate_keypair("TM", 7).subject_id == "TM"


def test_keypair_deterministic_for_same_seed():
    a = generate_keypair("TM", 7)
    b = generate_keypair("TM", 7)
    assert a.public_key == b.public_key
    assert a.private_key == b.private_key


def test_keypair_differs_across_seeds():
    assert generate_keypair("TM", 7).public_key != generate_keypair("TM", 8).public_key


def test_keypair_differs_across_subjects():
    assert generate_keypair("TM", 7).public_key != generate_keypair("SR", 7).public_key


def test_private_half_is_derived_without_the_public_half():
    # from the subject and seed alone: the raw Ed25519 signing seed, then the
    # raw X25519 seal key, each the SHA-256 of its tag, the length-prefixed
    # subject and the u64 seed
    def derived(tag: bytes, subject: str, seed: int) -> bytes:
        name = subject.encode()
        framed = tag + len(name).to_bytes(4, "big") + name + seed.to_bytes(8, "big")
        return hashlib.sha256(framed).digest()

    for subject, seed in (("TM", 7), ("SR", 0), ("AP", 2**64 - 1)):
        assert generate_keypair(subject, seed).private_key == (
            derived(b"gset/keys/sign/v1", subject, seed)
            + derived(b"gset/keys/seal/v1", subject, seed)
        )
    with pytest.raises(InvalidIdentityError):
        generate_keypair("", 7)
    with pytest.raises(ValueError):
        generate_keypair("TM", -1)


def test_keypair_sizes():
    kp = generate_keypair("TM", 7)
    assert len(kp.public_key) == PUBLIC_KEY_SIZE
    assert len(kp.private_key) == PRIVATE_KEY_SIZE


def test_empty_subject_id_rejected():
    with pytest.raises(InvalidIdentityError):
        generate_keypair("", 7)


def test_seed_must_be_u64():
    with pytest.raises(ValueError):
        generate_keypair("TM", -1)
    with pytest.raises(ValueError):
        generate_keypair("TM", 2**64)


# --- hashing ----------------------------------------------------------------


def test_hash_is_sha256():
    data = b"some service usage"
    assert hash_bytes(data).bytes == hashlib.sha256(data).digest()


def test_hash_of_empty_input_is_32_bytes():
    assert len(hash_bytes(b"").bytes) == 32


def test_hash_deterministic():
    assert hash_bytes(b"x") == hash_bytes(b"x")


def test_hash_differs_after_appending_a_byte():
    rng = Random(0xD1)
    for _ in range(1000):
        x = rng.randbytes(rng.randint(0, 64))
        assert hash_bytes(x) != hash_bytes(x + b"\x00")


def test_digest_must_be_exactly_32_bytes():
    with pytest.raises(ValueError):
        Digest(b"\x00" * 31)
    with pytest.raises(ValueError):
        Digest(b"\x00" * 33)


# --- sign / verify ----------------------------------------------------------


def test_sign_verify_round_trip():
    kp = generate_keypair("SP", 7)
    message = b"charge 50 units"
    sig = sign(kp, message)
    assert sig.signer_id == "SP"
    assert verify(kp.public_key, message, sig)


def test_verify_is_deterministic():
    kp = generate_keypair("SP", 7)
    sig = sign(kp, b"m")
    results = {verify(kp.public_key, b"m", sig) for _ in range(5)}
    assert results == {True}


def test_every_single_bit_flip_of_message_fails():
    kp = generate_keypair("SP", 7)
    message = b"charge 50"
    sig = sign(kp, message)
    for bit in range(len(message) * 8):
        assert not verify(kp.public_key, flip_bit(message, bit), sig)


def test_every_single_bit_flip_of_signature_fails():
    kp = generate_keypair("SP", 7)
    message = b"charge 50"
    sig = sign(kp, message)
    for bit in range(len(sig.bytes) * 8):
        mutated = Signature(flip_bit(sig.bytes, bit), sig.signer_id)
        assert not verify(kp.public_key, message, mutated)


def test_verify_with_wrong_public_key_fails():
    kp = generate_keypair("SP", 7)
    other = generate_keypair("TM", 7)
    sig = sign(kp, b"hello")
    assert not verify(other.public_key, b"hello", sig)


def test_malformed_signature_returns_false_not_exception():
    kp = generate_keypair("SP", 7)
    assert not verify(kp.public_key, b"m", Signature(b"\x01", "SP"))
    assert not verify(kp.public_key, b"m", Signature(b"\xff" * 64, "SP"))
    assert not verify(b"short", b"m", sign(kp, b"m"))


# --- Ed25519 against cryptography's, kept as the reference --------------------


def _reference_sign(kp, message) -> bytes:
    return Ed25519PrivateKey.from_private_bytes(kp.private_key[:32]).sign(bytes(message))


def _reference_public(seed: bytes) -> bytes:
    return Ed25519PrivateKey.from_private_bytes(seed).public_key().public_bytes_raw()


def _sodium_public(seed: bytes) -> bytes:
    """The Ed25519 public key of ``seed`` through the binding ``generate_keypair`` calls."""
    public = gset.crypto._PublicKeyBuffer()
    assert gset.crypto._crypto_sign_seed_keypair(public, gset.crypto._SecretKeyBuffer(), seed) == 0
    return public.raw


def _reference_verify(public_key: bytes, message, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key[:32]).verify(signature, bytes(message))
    except InvalidSignature:
        return False
    return True


def _differential_messages() -> list:
    manifest = encode(
        UploadManifest(hash_bytes(b"order"), tuple(hash_bytes(bytes([i])) for i in range(3)))
    )
    bulk = Random(0xED).randbytes(65536)
    return [b"", b"\x00", manifest, bulk, memoryview(bytearray(manifest))[1:]]


def test_sign_and_verify_agree_with_the_reference_on_every_single_bit_flip():
    # Ed25519 is deterministic, so the same seed and message give the same
    # bytes in any correct implementation: RFC 8032 section 7.1 TEST 1's key,
    # and the public half of every derived pair, are the reference's
    rfc_seed = bytes.fromhex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
    assert _sodium_public(rfc_seed) == bytes.fromhex(
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
    )
    rng = Random(0x8032)
    pairs = [("SR", 0), ("AP", 2**64 - 1)] + [
        (rng.choice(("SR", "SP", "TM", "AP", "AP-long-name", "é")), rng.getrandbits(64))
        for _ in range(1000)
    ]
    for subject, seed in pairs:
        kp = generate_keypair(subject, seed)
        assert kp.public_key[:32] == _reference_public(kp.private_key[:32]), (subject, seed)
    # each flip of the signature or of the key's Ed25519 half must draw the
    # reference's verdict
    for subject, seed in (("SR", 0), ("TM", 7), ("AP", 2**64 - 1)):
        kp = generate_keypair(subject, seed)
        for message in _differential_messages():
            sig = sign(kp, message)
            assert sig.bytes == _reference_sign(kp, message)
            assert verify(kp.public_key, message, sig)
            assert _reference_verify(kp.public_key, message, sig.bytes)
            for bit in range(len(sig.bytes) * 8):
                flipped = flip_bit(sig.bytes, bit)
                assert verify(kp.public_key, message, Signature(flipped, subject)) == (
                    _reference_verify(kp.public_key, message, flipped)
                ), (subject, len(message), "signature", bit)
            for bit in range(256):
                key = flip_bit(kp.public_key, bit)
                assert verify(key, message, sig) == _reference_verify(key, message, sig.bytes), (
                    subject, len(message), "key", bit
                )


def test_a_small_order_key_verifies_nothing():
    # the identity point, a point of order 2 and one of order 4, each with
    # the X25519 half of a real key; (identity, 0) satisfies the verify
    # equation under the identity key for every message, and cryptography
    # 48's OpenSSL accepts it there
    sp = generate_keypair("SP", 7)
    honest = sign(sp, b"m")
    crafted = Signature(b"\x01" + bytes(31) + bytes(32), "SP")
    seal_half = sp.public_key[32:]
    small_order = (b"\x01" + bytes(31), bytes.fromhex("ec" + "ff" * 30 + "7f"), bytes(32))
    for point in small_order:
        for sig in (honest, crafted):
            assert verify(point + seal_half, b"m", sig) is False


def _import_gset_with(patch: str) -> subprocess.CompletedProcess:
    """``import gset`` in a fresh process after running ``patch``."""
    script = (
        "import ctypes, ctypes.util, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        f"{patch}\n"
        "import gset\n"
    )
    src = str(Path(gset.crypto.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-c", script, src], capture_output=True, text=True)


@pytest.mark.parametrize(
    "patch",
    [
        # find_library's answer for a library that is not installed
        "ctypes.util.find_library = lambda name: None",
        # a libsodium whose sodium_init() fails
        "class _Sodium:\n"
        "    def __init__(self, path): pass\n"
        "    def sodium_init(self): return -1\n"
        "ctypes.CDLL = _Sodium",
    ],
    ids=["missing", "init-fails"],
)
def test_an_unusable_libsodium_fails_the_import_by_name(patch):
    result = _import_gset_with(patch)
    assert result.returncode != 0
    last = result.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError:") and "libsodium" in last


def test_every_libsodium_binding_declares_its_signature():
    # an undeclared binding passes each Python int as a C int, so a length
    # above 2**31 would be cut short without a word; ctypes' default restype
    # is c_int, so only the argument count tells an undeclared binding apart
    arity = {
        "crypto_sign_detached": 5,
        "crypto_sign_verify_detached": 4,
        "crypto_sign_seed_keypair": 3,
    }
    bound = {
        fn.__name__: fn
        for fn in vars(gset.crypto).values()
        if isinstance(fn, ctypes._CFuncPtr)
    }
    assert set(bound) == set(arity)
    for name, fn in bound.items():
        assert fn.argtypes is not None and len(fn.argtypes) == arity[name], name
        assert fn.restype is ctypes.c_int, name


def _count_parses(monkeypatch) -> dict[str, int]:
    """Private-key parses from here on, per key class of ``gset.crypto``."""
    counts = {"Ed25519PrivateKey": 0, "X25519PrivateKey": 0}
    for name in counts:
        cls = getattr(gset.crypto, name)

        def parse(data, _cls=cls, _name=name):
            counts[_name] += 1
            return _cls.from_private_bytes(data)

        monkeypatch.setattr(
            gset.crypto, name, type(name, (), {"from_private_bytes": staticmethod(parse)})
        )
    return counts


def test_a_key_pair_parses_each_half_once(monkeypatch):
    sp = generate_keypair("SP", 7)
    tm_public = generate_keypair("TM", 7).public_key
    envelopes = [seal(tm_public, "TM", b"payment", Random(i)) for i in range(3)]
    parses = _count_parses(monkeypatch)

    def use(pair):
        for envelope in envelopes:
            assert verify(tm_public, b"m", sign(pair, b"m"))
            assert mac_keys(pair, "SP", sp.public_key) is not None
            assert open_envelope(pair, envelope) == b"payment"

    # deriving parses the X25519 half, and the pair keeps it for every use;
    # libsodium derives and uses the Ed25519 half as raw bytes, unparsed
    tm = generate_keypair("TM", 7)
    use(tm)
    assert parses == {"Ed25519PrivateKey": 0, "X25519PrivateKey": 1}


def test_two_pairs_of_one_identity_parse_separately(monkeypatch):
    parses = _count_parses(monkeypatch)
    first, second = (generate_keypair("TM", 7) for _ in range(2))
    assert first == second
    assert sign(first, b"m") == sign(second, b"m")
    assert mac_keys(first, "SP", first.public_key) == mac_keys(second, "SP", first.public_key)
    # nothing parsed for one pair is handed to the other; no Ed25519 half
    # is parsed, since libsodium takes both as raw bytes
    assert parses == {"Ed25519PrivateKey": 0, "X25519PrivateKey": 2}


# --- pairwise MAC keys -------------------------------------------------------


def _pair(a: str, b: str, seed: int = 7):
    """``a``'s keys with ``b`` and ``b``'s keys with ``a``."""
    ka, kb = generate_keypair(a, seed), generate_keypair(b, seed)
    return mac_keys(ka, b, kb.public_key), mac_keys(kb, a, ka.public_key)


def test_both_ends_derive_the_same_key_for_each_direction():
    sp_side, tm_side = _pair("SP", "TM")
    assert sp_side == (tm_side[1], tm_side[0])
    assert all(len(key) == MAC_SIZE for key in sp_side)
    tag = mac(sp_side[0], b"charge 50")
    assert mac_ok(tm_side[1], b"charge 50", tag)


def test_each_direction_and_each_pair_has_its_own_key():
    (sp_to_tm, tm_to_sp), _ = _pair("SP", "TM")
    (tm_to_ap, ap_to_tm), _ = _pair("TM", "AP")
    keys = [sp_to_tm, tm_to_sp, tm_to_ap, ap_to_tm]
    assert len(set(keys)) == 4
    # a tag made for one direction fails in the other
    assert not mac_ok(tm_to_sp, b"m", mac(sp_to_tm, b"m"))


def test_a_hold_request_tag_fails_on_a_settle_request_payload():
    (tm_to_ap, _), _ = _pair("TM", "AP")
    nonce = bytes(range(16))
    hold = signing_payload_from(
        HoldRequest, {"hold_nonce": nonce, "account_ref_digest": hash_bytes(b"acct"), "amount": 50}
    )
    settle = signing_payload_from(SettleRequest, {"hold_nonce": nonce})
    tag = mac(tm_to_ap, hold)
    assert mac_ok(tm_to_ap, hold, tag)
    assert not mac_ok(tm_to_ap, settle, tag)
    assert not verify_maced(SettleRequest(nonce, tag), tm_to_ap, settle)


def test_every_single_bit_flip_of_a_tag_fails():
    (key, _), _ = _pair("SP", "TM")
    tag = mac(key, b"charge 50")
    for bit in range(MAC_SIZE * 8):
        assert not mac_ok(key, b"charge 50", flip_bit(tag, bit))


def test_a_wrong_or_malformed_peer_key_yields_false_not_an_exception():
    tm, sp = generate_keypair("TM", 7), generate_keypair("SP", 7)
    (sp_to_tm, _), _ = _pair("SP", "TM")
    tag = mac(sp_to_tm, b"m")
    # the trust manager holding someone else's key for "SP"
    wrong = mac_keys(tm, "SP", generate_keypair("SP", 8).public_key)
    assert not mac_ok(wrong[1], b"m", tag)
    # a key of the wrong size, and the all-zero (low-order) X25519 point
    for malformed in (b"", b"short", sp.public_key[:32], bytes(64)):
        assert mac_keys(tm, "SP", malformed) is None
    for bad_tag in (b"", tag[:-1], tag + b"\x00", "not bytes"):
        assert not mac_ok(sp_to_tm, b"m", bad_tag)


def test_mac_matches_rfc_4231_test_case_2():
    tag = mac(b"Jefe", b"what do ya want for nothing?")
    assert tag.hex() == "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"


def test_mac_matches_the_standard_library_hmac():
    rng = Random(0x4231)
    for _ in range(200):
        key = rng.randbytes(rng.choice((MAC_SIZE, rng.randint(0, 100))))
        message = rng.randbytes(rng.randint(0, 300))
        tag = mac(key, message)
        assert tag == hmac.digest(key, message, "sha256")
        assert mac_ok(key, message, tag)


def test_mac_ok_rejects_a_tag_of_the_wrong_length_or_type():
    (key, _), _ = _pair("SP", "TM")
    tag = mac(key, b"m")
    for bad_tag in (tag[:31], tag + b"\x00", bytearray(tag), memoryview(tag), tag.hex()):
        assert not mac_ok(key, b"m", bad_tag)


# --- sealed envelopes -------------------------------------------------------


def test_seal_open_round_trip():
    tm = generate_keypair("TM", 7)
    plaintext = b"account ACCT-123, limit 60"
    env = seal(tm.public_key, "TM", plaintext)
    assert [f.name for f in dataclasses.fields(env)] == ["ephemeral_key", "ciphertext"]
    # the ephemeral public key, then the payload and its 16-byte GCM tag
    assert len(env.ephemeral_key) == 32
    assert len(env.ciphertext) == len(plaintext) + 16
    assert open_envelope(tm, env) == plaintext


def test_ciphertext_does_not_contain_plaintext():
    tm = generate_keypair("TM", 7)
    secret = b"ACCT-5555-SECRET-REF"
    env = seal(tm.public_key, "TM", secret)
    assert secret not in env.ciphertext
    assert secret not in env.ephemeral_key


def test_open_with_wrong_recipient_fails():
    tm = generate_keypair("TM", 7)
    sp = generate_keypair("SP", 7)
    env = seal(tm.public_key, "TM", b"secret payment details")
    # the recipient id is bound into the key and the associated data, so the
    # right seal key under another name does not open the envelope either
    for opener, envelope in (
        (sp, env),
        (dataclasses.replace(tm, subject_id="TM2"), env),
        (tm, seal(tm.public_key, "TM2", b"secret payment details")),
    ):
        with pytest.raises(EnvelopeIntegrityError):
            open_envelope(opener, envelope)


def test_open_with_wrong_key_material_fails():
    # right identity label, wrong private key: still an authenticated failure
    tm = generate_keypair("TM", 7)
    impostor = generate_keypair("TM", 8)
    env = seal(tm.public_key, "TM", b"secret payment details")
    with pytest.raises(EnvelopeIntegrityError):
        open_envelope(impostor, env)


def test_two_seals_of_same_plaintext_differ():
    tm = generate_keypair("TM", 7)
    a = seal(tm.public_key, "TM", b"same plaintext")
    b = seal(tm.public_key, "TM", b"same plaintext")
    assert a.ciphertext != b.ciphertext
    assert a.ephemeral_key != b.ephemeral_key


def test_seal_with_injected_rng_is_reproducible():
    tm = generate_keypair("TM", 7)
    a = seal(tm.public_key, "TM", b"payload", rng=Random(42))
    b = seal(tm.public_key, "TM", b"payload", rng=Random(42))
    assert a == b


def test_seal_rejects_empty_plaintext():
    tm = generate_keypair("TM", 7)
    with pytest.raises(ValueError):
        seal(tm.public_key, "TM", b"")


def test_every_bit_flip_in_envelope_fails_to_open():
    tm = generate_keypair("TM", 7)
    env = seal(tm.public_key, "TM", b"0123456789abcdef", rng=Random(1))
    # bit 248 is the top bit of the ephemeral key's last byte, which X25519
    # masks: the agreement ignores it, so only the associated data catches it
    for bit in range(len(env.ephemeral_key) * 8):
        bad = dataclasses.replace(env, ephemeral_key=flip_bit(env.ephemeral_key, bit))
        with pytest.raises(EnvelopeIntegrityError):
            open_envelope(tm, bad)
    for bit in range(len(env.ciphertext) * 8):
        bad = dataclasses.replace(env, ciphertext=flip_bit(env.ciphertext, bit))
        with pytest.raises(EnvelopeIntegrityError):
            open_envelope(tm, bad)


def test_the_masked_ephemeral_bit_reaches_the_same_agreement():
    # why the ephemeral key is authenticated: with its masked bit flipped it
    # still yields the very secret the recipient derives from the original
    tm = generate_keypair("TM", 7)
    env = seal(tm.public_key, "TM", b"payload", rng=Random(1))
    flipped = flip_bit(env.ephemeral_key, 248)  # top bit of the last byte
    assert flipped != env.ephemeral_key
    agree = tm.seal_key.exchange
    assert agree(X25519PublicKey.from_public_bytes(flipped)) == agree(
        X25519PublicKey.from_public_bytes(env.ephemeral_key)
    )


def test_a_truncated_or_malformed_envelope_fails_to_open():
    tm = generate_keypair("TM", 7)
    env = seal(tm.public_key, "TM", b"payload", rng=Random(1))
    for bad in (
        dataclasses.replace(env, ephemeral_key=env.ephemeral_key[:-1]),
        dataclasses.replace(env, ephemeral_key=env.ephemeral_key + b"\x00"),
        dataclasses.replace(env, ephemeral_key=bytes(32)),  # low order: all-zero secret
        dataclasses.replace(env, ciphertext=env.ciphertext[:15]),
        dataclasses.replace(env, ciphertext=env.ciphertext[:-1]),
    ):
        with pytest.raises(EnvelopeIntegrityError):
            open_envelope(tm, bad)


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=1, max_size=200))
def test_seal_open_round_trip_over_random_plaintexts(plaintext):
    tm = generate_keypair("TM", 7)
    assert open_envelope(tm, seal(tm.public_key, "TM", plaintext)) == plaintext


# --- dual signatures --------------------------------------------------------

OI = b"order: 3 megabytes of mobile-storage at 10 each"
PI = b"payment: account ACCT-42, authorized limit 60"
OI_DIGEST, PI_DIGEST = hash_bytes(OI), hash_bytes(PI)

# Each verifier hashes the half it holds and takes the other half's digest
# as sent: the provider hashes the order, the trust manager the payment.


def test_dual_signature_structure():
    sr = generate_keypair("SR", 7)
    dual = make_dual_signature(sr, OI_DIGEST, PI_DIGEST)
    assert dual.signer_id == "SR"
    # the signed message is the digest of the two digests, in OI || PI order
    target = hashlib.sha256(
        hashlib.sha256(OI).digest() + hashlib.sha256(PI).digest()
    ).digest()
    assert verify(sr.public_key, target, dual)


def test_split_verification_passes_on_honest_inputs():
    sr = generate_keypair("SR", 7)
    dual = make_dual_signature(sr, OI_DIGEST, PI_DIGEST)
    assert verify_dual(sr.public_key, hash_bytes(OI), PI_DIGEST, dual)
    assert verify_dual(sr.public_key, OI_DIGEST, hash_bytes(PI), dual)


def test_substituted_payment_info_fails_pi_verification():
    sr = generate_keypair("SR", 7)
    dual = make_dual_signature(sr, OI_DIGEST, PI_DIGEST)
    assert not verify_dual(sr.public_key, OI_DIGEST, hash_bytes(PI + b"!"), dual)


def test_mutated_order_info_fails_oi_verification():
    sr = generate_keypair("SR", 7)
    dual = make_dual_signature(sr, OI_DIGEST, PI_DIGEST)
    mutated = bytearray(OI)
    mutated[0] ^= 0x01
    assert not verify_dual(sr.public_key, hash_bytes(bytes(mutated)), PI_DIGEST, dual)


def test_substituted_digests_fail_verification():
    sr = generate_keypair("SR", 7)
    dual = make_dual_signature(sr, OI_DIGEST, PI_DIGEST)
    wrong = hash_bytes(b"some other half")
    assert not verify_dual(sr.public_key, hash_bytes(OI), wrong, dual)
    assert not verify_dual(sr.public_key, wrong, hash_bytes(PI), dual)
    # the two digests swapped: the signature binds which half is which
    assert not verify_dual(sr.public_key, PI_DIGEST, OI_DIGEST, dual)


def test_dual_signature_reproducible_across_key_regeneration():
    a = make_dual_signature(generate_keypair("SR", 7), OI_DIGEST, PI_DIGEST)
    b = make_dual_signature(generate_keypair("SR", 7), OI_DIGEST, PI_DIGEST)
    assert a == b


def test_dual_signature_rejects_empty_inputs():
    # a half is its digest: empty bytes in its place are refused, both to
    # sign and to verify
    sr = generate_keypair("SR", 7)
    with pytest.raises(TypeError):
        make_dual_signature(sr, b"", PI_DIGEST)
    with pytest.raises(TypeError):
        make_dual_signature(sr, OI_DIGEST, b"")
    dual = make_dual_signature(sr, OI_DIGEST, PI_DIGEST)
    with pytest.raises(TypeError):
        verify_dual(sr.public_key, b"", PI_DIGEST, dual)
    with pytest.raises(TypeError):
        verify_dual(sr.public_key, OI_DIGEST, b"", dual)


def test_dual_signature_by_wrong_key_fails_both_ways():
    sr = generate_keypair("SR", 7)
    other = generate_keypair("SR", 8)
    dual = make_dual_signature(other, OI_DIGEST, PI_DIGEST)
    assert not verify_dual(sr.public_key, hash_bytes(OI), PI_DIGEST, dual)
    assert not verify_dual(sr.public_key, OI_DIGEST, hash_bytes(PI), dual)


def test_randomized_mutations_never_verify():
    rng = Random(0xDC)
    sr = generate_keypair("SR", 7)
    for _ in range(100):
        oi = rng.randbytes(rng.randint(1, 64))
        pi = rng.randbytes(rng.randint(1, 64))
        dual = make_dual_signature(sr, hash_bytes(oi), hash_bytes(pi))
        kind = rng.randrange(4)
        if kind == 0:
            bad = flip_bit(oi, rng.randrange(len(oi) * 8))
            assert not verify_dual(sr.public_key, hash_bytes(bad), hash_bytes(pi), dual)
        elif kind == 1:
            bad = flip_bit(pi, rng.randrange(len(pi) * 8))
            assert not verify_dual(sr.public_key, hash_bytes(oi), hash_bytes(bad), dual)
        elif kind == 2:
            bad_digest = Digest(flip_bit(hash_bytes(pi).bytes, rng.randrange(256)))
            assert not verify_dual(sr.public_key, hash_bytes(oi), bad_digest, dual)
        else:
            bad_digest = Digest(flip_bit(hash_bytes(oi).bytes, rng.randrange(256)))
            assert not verify_dual(sr.public_key, bad_digest, hash_bytes(pi), dual)
