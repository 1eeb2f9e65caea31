"""Unit tests for the authenticated-communication substrate."""

import hashlib
import hmac

import pytest

from repro.common.crypto import (
    DIGEST_SIZE,
    KeyStore,
    MacAuthenticator,
    Signature,
    SignatureScheme,
    digest_hex,
    sha256,
    verify_certificate,
)
from repro.errors import CryptoError


class TestHashing:
    def test_sha256_is_deterministic(self):
        assert sha256(b"ringbft") == sha256(b"ringbft")

    def test_sha256_differs_on_different_input(self):
        assert sha256(b"a") != sha256(b"b")

    def test_digest_size(self):
        assert len(sha256(b"payload")) == DIGEST_SIZE

    def test_digest_hex_matches_binary_digest(self):
        assert bytes.fromhex(digest_hex(b"x")) == sha256(b"x")


class TestKeyStore:
    def test_signing_keys_differ_per_entity(self):
        store = KeyStore()
        assert store.signing_key("r0@S0") != store.signing_key("r1@S0")

    def test_mac_key_is_symmetric(self):
        store = KeyStore()
        assert store.mac_key("a", "b") == store.mac_key("b", "a")

    def test_mac_keys_differ_per_pair(self):
        store = KeyStore()
        assert store.mac_key("a", "b") != store.mac_key("a", "c")

    def test_different_seeds_produce_different_keys(self):
        assert KeyStore(b"one").signing_key("x") != KeyStore(b"two").signing_key("x")


class TestSignatureScheme:
    def test_sign_and_verify_roundtrip(self):
        store = KeyStore()
        scheme = SignatureScheme(store)
        signature = scheme.sign("replica-1", b"message")
        assert scheme.verify(signature, b"message")

    def test_verification_fails_on_tampered_payload(self):
        scheme = SignatureScheme(KeyStore())
        signature = scheme.sign("replica-1", b"message")
        assert not scheme.verify(signature, b"another message")

    def test_verification_fails_on_wrong_signer(self):
        scheme = SignatureScheme(KeyStore())
        signature = scheme.sign("replica-1", b"message")
        forged = Signature(signer="replica-2", value=signature.value)
        assert not scheme.verify(forged, b"message")

    def test_sign_with_stolen_key_is_rejected(self):
        store = KeyStore()
        scheme = SignatureScheme(store)
        wrong_key = store.signing_key("replica-2")
        with pytest.raises(CryptoError):
            scheme.sign("replica-1", b"message", wrong_key)

    def test_require_valid_raises_on_bad_signature(self):
        scheme = SignatureScheme(KeyStore())
        signature = scheme.sign("replica-1", b"message")
        with pytest.raises(CryptoError):
            scheme.require_valid(signature, b"tampered")

    def test_signature_value_must_be_digest_sized(self):
        with pytest.raises(CryptoError):
            Signature(signer="x", value=b"short")


class TestMacAuthenticator:
    def test_tag_verifies_between_the_two_endpoints(self):
        store = KeyStore()
        alice = MacAuthenticator(owner="alice", keystore=store)
        bob = MacAuthenticator(owner="bob", keystore=store)
        tag = alice.tag("bob", b"hello")
        assert bob.verify("alice", b"hello", tag)

    def test_tag_rejected_by_third_party_channel(self):
        store = KeyStore()
        alice = MacAuthenticator(owner="alice", keystore=store)
        carol = MacAuthenticator(owner="carol", keystore=store)
        tag = alice.tag("bob", b"hello")
        assert not carol.verify("alice", b"hello", tag)

    def test_tampered_payload_rejected(self):
        store = KeyStore()
        alice = MacAuthenticator(owner="alice", keystore=store)
        bob = MacAuthenticator(owner="bob", keystore=store)
        tag = alice.tag("bob", b"hello")
        assert not bob.verify("alice", b"bye", tag)

    def test_tags_are_plain_hmac_sha256_bytes(self):
        # Tags ride on the wire and are verified by other processes: the
        # bytes are HMAC-SHA256 under the pairwise key, pinned for one key.
        store = KeyStore()
        alice = MacAuthenticator(owner="alice", keystore=store)
        key = store.mac_key("alice", "bob")
        assert key == hmac.new(b"ringbft-repro", b"mac|alice|bob", hashlib.sha256).digest()
        tag = alice.tag("bob", b"hello")
        assert tag == hmac.new(key, b"hello", hashlib.sha256).digest()
        assert tag.hex() == "77f16a518c7455687faf1334d448cb369483772eeb1a39f6a6724391299c7d60"
        assert alice.tag_vector(["bob"], b"hello") == {"bob": tag}


class TestCertificates:
    def _signatures(self, scheme, payload, signers):
        return [scheme.sign(name, payload) for name in signers]

    def test_certificate_with_enough_distinct_signers_is_valid(self):
        scheme = SignatureScheme(KeyStore())
        payload = b"commit|view=0|seq=1"
        sigs = self._signatures(scheme, payload, ["r0", "r1", "r2"])
        assert verify_certificate(scheme, payload, sigs, required=3)

    def test_certificate_with_too_few_signers_is_invalid(self):
        scheme = SignatureScheme(KeyStore())
        payload = b"commit"
        sigs = self._signatures(scheme, payload, ["r0", "r1"])
        assert not verify_certificate(scheme, payload, sigs, required=3)

    def test_duplicate_signers_do_not_count_twice(self):
        scheme = SignatureScheme(KeyStore())
        payload = b"commit"
        sig = scheme.sign("r0", payload)
        assert not verify_certificate(scheme, payload, [sig, sig, sig], required=2)

    def test_invalid_signatures_are_ignored(self):
        scheme = SignatureScheme(KeyStore())
        payload = b"commit"
        good = self._signatures(scheme, payload, ["r0", "r1"])
        bad = scheme.sign("r2", b"other payload")
        assert not verify_certificate(scheme, payload, good + [bad], required=3)
