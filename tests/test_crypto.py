"""Identity, hashing, signing, envelope, and split-signature behavior."""
from __future__ import annotations

import dataclasses
import hashlib
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gset import (
    Digest,
    EnvelopeError,
    EnvelopeIntegrityError,
    InvalidIdentityError,
    KeyPair,
    MissingKeyError,
    Signature,
    WrongRecipientError,
    generate_keypair,
    hash_bytes,
    make_dual_signature,
    open_envelope,
    seal,
    sign,
    verify,
    verify_with_oi,
    verify_with_pi,
)
from gset.crypto import PRIVATE_KEY_SIZE, PUBLIC_KEY_SIZE

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


def test_sign_without_private_key_raises():
    kp = generate_keypair("SP", 7)
    public_only = KeyPair(public_key=kp.public_key, private_key=b"", subject_id="SP")
    with pytest.raises(MissingKeyError):
        sign(public_only, b"m")


# --- sealed envelopes -------------------------------------------------------


def test_seal_open_round_trip():
    tm = generate_keypair("TM", 7)
    plaintext = b"account ACCT-123, limit 60"
    env = seal(tm.public_key, "TM", plaintext)
    assert env.recipient_id == "TM"
    assert open_envelope(tm, env) == plaintext


def test_ciphertext_does_not_contain_plaintext():
    tm = generate_keypair("TM", 7)
    secret = b"ACCT-5555-SECRET-REF"
    env = seal(tm.public_key, "TM", secret)
    assert secret not in env.ciphertext
    assert secret not in env.wrapped_key


def test_open_with_wrong_recipient_fails():
    tm = generate_keypair("TM", 7)
    sp = generate_keypair("SP", 7)
    env = seal(tm.public_key, "TM", b"secret payment details")
    with pytest.raises(WrongRecipientError):
        open_envelope(sp, env)


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
    assert a.wrapped_key != b.wrapped_key


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
    for bit in range(len(env.ciphertext) * 8):
        bad = type(env)(env.recipient_id, flip_bit(env.ciphertext, bit), env.wrapped_key)
        with pytest.raises(EnvelopeError):
            open_envelope(tm, bad)
    for bit in range(len(env.wrapped_key) * 8):
        bad = type(env)(env.recipient_id, env.ciphertext, flip_bit(env.wrapped_key, bit))
        with pytest.raises(EnvelopeError):
            open_envelope(tm, bad)


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=1, max_size=200))
def test_seal_open_round_trip_over_random_plaintexts(plaintext):
    tm = generate_keypair("TM", 7)
    assert open_envelope(tm, seal(tm.public_key, "TM", plaintext)) == plaintext


# --- dual signatures --------------------------------------------------------

OI = b"order: 3 megabytes of mobile-storage at 10 each"
PI = b"payment: account ACCT-42, authorized limit 60"


def test_dual_signature_structure():
    sr = generate_keypair("SR", 7)
    dual = make_dual_signature(sr, OI, PI)
    assert dual.oi_digest == hash_bytes(OI)
    assert dual.pi_digest == hash_bytes(PI)
    assert dual.signature.signer_id == "SR"
    # the signed message is the digest of the two digests, in OI || PI order
    target = hashlib.sha256(
        hashlib.sha256(OI).digest() + hashlib.sha256(PI).digest()
    ).digest()
    assert verify(sr.public_key, target, dual.signature)


def test_split_verification_passes_on_honest_inputs():
    sr = generate_keypair("SR", 7)
    dual = make_dual_signature(sr, OI, PI)
    assert verify_with_oi(sr.public_key, OI, dual)
    assert verify_with_pi(sr.public_key, PI, dual)


def test_substituted_payment_info_fails_pi_verification():
    sr = generate_keypair("SR", 7)
    dual = make_dual_signature(sr, OI, PI)
    assert not verify_with_pi(sr.public_key, PI + b"!", dual)


def test_mutated_order_info_fails_oi_verification():
    sr = generate_keypair("SR", 7)
    dual = make_dual_signature(sr, OI, PI)
    mutated = bytearray(OI)
    mutated[0] ^= 0x01
    assert not verify_with_oi(sr.public_key, bytes(mutated), dual)


def test_substituted_digests_fail_verification():
    sr = generate_keypair("SR", 7)
    dual = make_dual_signature(sr, OI, PI)
    wrong = hash_bytes(b"some other half")
    assert not verify_with_oi(sr.public_key, OI, dataclasses.replace(dual, pi_digest=wrong))
    assert not verify_with_pi(sr.public_key, PI, dataclasses.replace(dual, oi_digest=wrong))


def test_dual_signature_reproducible_across_key_regeneration():
    a = make_dual_signature(generate_keypair("SR", 7), OI, PI)
    b = make_dual_signature(generate_keypair("SR", 7), OI, PI)
    assert a == b


def test_dual_signature_rejects_empty_inputs():
    sr = generate_keypair("SR", 7)
    with pytest.raises(ValueError):
        make_dual_signature(sr, b"", PI)
    with pytest.raises(ValueError):
        make_dual_signature(sr, OI, b"")


def test_dual_signature_by_wrong_key_fails_both_ways():
    sr = generate_keypair("SR", 7)
    other = generate_keypair("SR", 8)
    dual = make_dual_signature(other, OI, PI)
    assert not verify_with_oi(sr.public_key, OI, dual)
    assert not verify_with_pi(sr.public_key, PI, dual)


def test_randomized_mutations_never_verify():
    rng = Random(0xDC)
    sr = generate_keypair("SR", 7)
    for _ in range(100):
        oi = rng.randbytes(rng.randint(1, 64))
        pi = rng.randbytes(rng.randint(1, 64))
        dual = make_dual_signature(sr, oi, pi)
        kind = rng.randrange(4)
        if kind == 0:
            bad = flip_bit(oi, rng.randrange(len(oi) * 8))
            assert not verify_with_oi(sr.public_key, bad, dual)
        elif kind == 1:
            bad = flip_bit(pi, rng.randrange(len(pi) * 8))
            assert not verify_with_pi(sr.public_key, bad, dual)
        elif kind == 2:
            bad_digest = Digest(flip_bit(hash_bytes(pi).bytes, rng.randrange(256)))
            assert not verify_with_oi(
                sr.public_key, oi, dataclasses.replace(dual, pi_digest=bad_digest)
            )
        else:
            bad_digest = Digest(flip_bit(hash_bytes(oi).bytes, rng.randrange(256)))
            assert not verify_with_pi(
                sr.public_key, pi, dataclasses.replace(dual, oi_digest=bad_digest)
            )
