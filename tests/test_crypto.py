"""Identity, hashing, signing, envelope, and split-signature behavior."""
from __future__ import annotations

import dataclasses
import hashlib
import hmac
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gset import (
    MAC_SIZE,
    Digest,
    EnvelopeError,
    EnvelopeIntegrityError,
    HoldRequest,
    InvalidIdentityError,
    KeyPair,
    MissingKeyError,
    SettleRequest,
    Signature,
    WrongRecipientError,
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
    verify_with_oi,
    verify_with_pi,
)
from gset.codec import signing_payload_from
from gset.crypto import PRIVATE_KEY_SIZE, PUBLIC_KEY_SIZE, derive_private_key
from gset.messages import verify_maced

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
    for subject, seed in (("TM", 7), ("SR", 0), ("AP", 2**64 - 1)):
        assert derive_private_key(subject, seed) == generate_keypair(subject, seed).private_key
    with pytest.raises(InvalidIdentityError):
        derive_private_key("", 7)
    with pytest.raises(ValueError):
        derive_private_key("TM", -1)


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
    settle = signing_payload_from(SettleRequest, {"settle_nonce": nonce, "hold_ref": nonce})
    tag = mac(tm_to_ap, hold)
    assert mac_ok(tm_to_ap, hold, tag)
    assert not mac_ok(tm_to_ap, settle, tag)
    assert not verify_maced(SettleRequest(nonce, nonce, tag), tm_to_ap)


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


def test_mac_keys_without_a_private_key_raise():
    tm, sp = generate_keypair("TM", 7), generate_keypair("SP", 7)
    with pytest.raises(MissingKeyError):
        mac_keys(KeyPair(tm.public_key, b"", "TM"), "SP", sp.public_key)


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
