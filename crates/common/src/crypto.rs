//! Endorsement signatures: HMAC-SHA256 over canonical transaction bytes.
//!
//! Real Fabric endorsers sign proposal responses with ECDSA keys whose
//! certificates are distributed through the Membership Service Provider.
//! The validation phase (paper §2.2.3, Appendix A.3.1) recomputes the
//! signature input from the received read/write set and rejects the
//! transaction if any endorser signature does not match — this is how the
//! tampered `T8` in the paper's running example is caught.
//!
//! Inside a closed simulator the properties that matter are:
//!
//! 1. a signature binds a specific endorser to the *exact* bytes it endorsed,
//! 2. any mutation of the read/write set after endorsement is detected, and
//! 3. signing and verifying cost real CPU per transaction (the paper's §3
//!    point (d): crypto dominates Fabric's performance profile).
//!
//! HMAC-SHA256 with a per-peer secret held in a [`SignerRegistry`] (the
//! simulator's stand-in for the MSP) provides all three. The substitution is
//! recorded in DESIGN.md §5.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::hash::Sha256;
use crate::ids::PeerId;

/// A 256-bit MAC tag acting as an endorsement signature.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub [u8; 32]);

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature({}…)", crate::ids::hex(&self.0[..6]))
    }
}

/// A peer's signing key (HMAC secret).
///
/// The key is kept as the two SHA-256 midstates HMAC starts from: the
/// states left after absorbing the `key ⊕ ipad` and `key ⊕ opad` blocks.
/// Each signature clones them instead of hashing both key blocks again.
#[derive(Clone)]
pub struct SigningKey {
    inner: Sha256,
    outer: Sha256,
}

impl fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SigningKey(<secret>)")
    }
}

const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

impl SigningKey {
    /// Derives a signing key from arbitrary seed material.
    ///
    /// Seeds longer than the HMAC block size are hashed first, per RFC 2104.
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut key = [0u8; 64];
        if seed.len() <= 64 {
            key[..seed.len()].copy_from_slice(seed);
        } else {
            let d = crate::hash::sha256(seed);
            key[..32].copy_from_slice(d.as_bytes());
        }
        SigningKey { inner: Self::midstate(&key, IPAD), outer: Self::midstate(&key, OPAD) }
    }

    /// The hash state after absorbing `key ⊕ pad`.
    fn midstate(key: &[u8; 64], pad: u8) -> Sha256 {
        Sha256::new().chain(&key.map(|b| b ^ pad))
    }

    /// Derives the deterministic signing key the simulator assigns to `peer`.
    pub fn for_peer(peer: PeerId, network_seed: u64) -> Self {
        let mut seed = Vec::with_capacity(24);
        seed.extend_from_slice(b"fabricpp-msp");
        seed.extend_from_slice(&network_seed.to_le_bytes());
        seed.extend_from_slice(&peer.raw().to_le_bytes());
        SigningKey::from_seed(&seed)
    }

    /// HMAC-SHA256 over `msg`.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        self.sign_parts(&[msg])
    }

    /// Signs a message given as multiple slices (avoids concatenation).
    pub fn sign_parts(&self, parts: &[&[u8]]) -> Signature {
        let mut inner = self.inner.clone();
        for p in parts {
            inner.update(p);
        }
        Signature(self.outer.clone().chain(inner.finalize().as_bytes()).finalize().0)
    }

    /// Iterated signature: `s₀ = HMAC(parts)`, `sᵢ₊₁ = HMAC(sᵢ)`, returning
    /// `s_{iterations-1}`.
    ///
    /// Used with the [`crate::config::CostModel`] to give each signing
    /// operation the CPU cost of the ECDSA operations that dominate real
    /// Fabric (paper §3 point (d)); `iterations = 1` is a plain HMAC.
    pub fn sign_iterated(&self, parts: &[&[u8]], iterations: u32) -> Signature {
        let mut sig = self.sign_parts(parts);
        for _ in 1..iterations.max(1) {
            sig = self.sign_parts(&[&sig.0]);
        }
        sig
    }

    /// Verifies a signature produced by [`SigningKey::sign_iterated`] with
    /// the same iteration count (recomputing the full chain, so
    /// verification costs what signing costs).
    pub fn verify_iterated(&self, parts: &[&[u8]], sig: &Signature, iterations: u32) -> bool {
        constant_time_eq(&self.sign_iterated(parts, iterations).0, &sig.0)
    }

    /// Verifies `sig` over `msg`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        self.verify_parts(&[msg], sig)
    }

    /// Verifies a signature produced by [`SigningKey::sign_parts`].
    pub fn verify_parts(&self, parts: &[&[u8]], sig: &Signature) -> bool {
        constant_time_eq(&self.sign_parts(parts).0, &sig.0)
    }
}

/// Comparison that does not short-circuit on the first mismatching byte.
fn constant_time_eq(a: &[u8; 32], b: &[u8; 32]) -> bool {
    let mut diff = 0u8;
    for i in 0..32 {
        diff |= a[i] ^ b[i];
    }
    diff == 0
}

/// The simulator's stand-in for Fabric's MSP: maps each peer to its signing
/// key so validators can recompute endorsement signatures.
///
/// Cloning is cheap (shared `Arc`); registration typically happens once at
/// network construction time.
#[derive(Clone, Default)]
pub struct SignerRegistry {
    keys: Arc<RwLock<HashMap<PeerId, SigningKey>>>,
}

impl SignerRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the signing key for `peer`.
    pub fn register(&self, peer: PeerId, key: SigningKey) {
        self.keys.write().insert(peer, key);
    }

    /// Verifies that `sig` is `peer`'s signature over `parts`.
    ///
    /// Unknown peers verify as `false` (an endorsement from a peer outside
    /// the MSP is never acceptable).
    pub fn verify(&self, peer: PeerId, parts: &[&[u8]], sig: &Signature) -> bool {
        self.keys.read().get(&peer).is_some_and(|key| key.verify_parts(parts, sig))
    }

    /// Verifies an iterated signature (see [`SigningKey::sign_iterated`]).
    pub fn verify_iterated(
        &self,
        peer: PeerId,
        parts: &[&[u8]],
        sig: &Signature,
        iterations: u32,
    ) -> bool {
        self.keys
            .read()
            .get(&peer)
            .is_some_and(|key| key.verify_iterated(parts, sig, iterations))
    }

    /// Number of registered peers.
    pub fn len(&self) -> usize {
        self.keys.read().len()
    }

    /// Whether no peer is registered.
    pub fn is_empty(&self) -> bool {
        self.keys.read().is_empty()
    }
}

impl fmt::Debug for SignerRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SignerRegistry({} peers)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex_sig(key: &[u8], msg: &[u8]) -> String {
        crate::ids::hex(&SigningKey::from_seed(key).sign(msg).0)
    }

    // RFC 4231 HMAC-SHA256 test vectors.
    #[test]
    fn rfc4231_case_1() {
        assert_eq!(
            hex_sig(&[0x0b; 20], b"Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        assert_eq!(
            hex_sig(b"Jefe", b"what do ya want for nothing?"),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        assert_eq!(
            hex_sig(&[0xaa; 20], &[0xdd; 50]),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        // Key longer than block size must be hashed first.
        assert_eq!(
            hex_sig(
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            ),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn sign_parts_equals_sign_concat() {
        let k = SigningKey::from_seed(b"some key");
        let whole = k.sign(b"hello world");
        let parts = k.sign_parts(&[b"hello", b" ", b"world"]);
        assert_eq!(whole, parts);
        assert!(k.verify_parts(&[b"hello world"], &whole));
    }

    #[test]
    fn verification_rejects_tampering() {
        let k = SigningKey::from_seed(b"endorser-key");
        let sig = k.sign(b"WS = {BalA=70, BalB=80}");
        assert!(k.verify(b"WS = {BalA=70, BalB=80}", &sig));
        // The paper's running example: client swaps in a tampered write set.
        assert!(!k.verify(b"WS = {BalA=100, BalB=120}", &sig));
    }

    #[test]
    fn verification_rejects_wrong_key() {
        let honest = SigningKey::for_peer(PeerId(1), 42);
        let attacker = SigningKey::for_peer(PeerId(2), 42);
        let sig = attacker.sign(b"msg");
        assert!(!honest.verify(b"msg", &sig));
    }

    #[test]
    fn per_peer_keys_are_deterministic_and_distinct() {
        let a1 = SigningKey::for_peer(PeerId(1), 7);
        let a2 = SigningKey::for_peer(PeerId(1), 7);
        let b = SigningKey::for_peer(PeerId(2), 7);
        let other_net = SigningKey::for_peer(PeerId(1), 8);
        assert_eq!(a1.sign(b"m"), a2.sign(b"m"));
        assert_ne!(a1.sign(b"m"), b.sign(b"m"));
        assert_ne!(a1.sign(b"m"), other_net.sign(b"m"));
    }

    #[test]
    fn registry_verifies_known_rejects_unknown() {
        let reg = SignerRegistry::new();
        let key = SigningKey::for_peer(PeerId(9), 1);
        reg.register(PeerId(9), key.clone());
        let sig = key.sign_parts(&[b"payload"]);
        assert!(reg.verify(PeerId(9), &[b"payload"], &sig));
        assert!(!reg.verify(PeerId(10), &[b"payload"], &sig));
        assert!(!reg.verify(PeerId(9), &[b"other"], &sig));
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
    }

    #[test]
    fn iterated_signatures_round_trip() {
        let k = SigningKey::from_seed(b"iter");
        let sig1 = k.sign_iterated(&[b"payload"], 1);
        assert_eq!(sig1, k.sign_parts(&[b"payload"]), "one iteration = plain HMAC");
        let sig16 = k.sign_iterated(&[b"payload"], 16);
        assert_ne!(sig1, sig16);
        assert!(k.verify_iterated(&[b"payload"], &sig16, 16));
        assert!(!k.verify_iterated(&[b"payload"], &sig16, 15));
        assert!(!k.verify_iterated(&[b"other"], &sig16, 16));
        // Zero clamps to one.
        assert_eq!(k.sign_iterated(&[b"p"], 0), k.sign_iterated(&[b"p"], 1));
    }

    #[test]
    fn registry_verify_iterated() {
        let reg = SignerRegistry::new();
        let key = SigningKey::for_peer(PeerId(4), 1);
        reg.register(PeerId(4), key.clone());
        let sig = key.sign_iterated(&[b"m"], 8);
        assert!(reg.verify_iterated(PeerId(4), &[b"m"], &sig, 8));
        assert!(!reg.verify_iterated(PeerId(5), &[b"m"], &sig, 8));
    }

    /// RFC 2104 HMAC-SHA256 straight from the raw key, without midstates.
    fn textbook_hmac(key: &[u8], msg: &[u8]) -> [u8; 32] {
        let mut block = [0u8; 64];
        if key.len() > 64 {
            block[..32].copy_from_slice(crate::hash::sha256(key).as_bytes());
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let ipad = block.map(|b| b ^ 0x36);
        let opad = block.map(|b| b ^ 0x5c);
        let inner = crate::hash::sha256_concat(&[&ipad, msg]);
        crate::hash::sha256_concat(&[&opad, inner.as_bytes()]).0
    }

    proptest! {
        /// Midstate keys tag exactly like textbook HMAC on the raw key, for
        /// keys up to 131 bytes (past 64 the key is hashed first).
        #[test]
        fn midstate_hmac_matches_textbook(
            key in proptest::collection::vec(any::<u8>(), 0..132),
            msg in proptest::collection::vec(any::<u8>(), 0..300),
            cut in any::<usize>(),
        ) {
            let expect = textbook_hmac(&key, &msg);
            let k = SigningKey::from_seed(&key);
            prop_assert_eq!(k.sign(&msg).0, expect);
            let (a, b) = msg.split_at(cut % (msg.len() + 1));
            prop_assert_eq!(k.sign_parts(&[a, b]).0, expect);
        }
    }

    #[test]
    fn constant_time_eq_works() {
        let a = [7u8; 32];
        let mut b = a;
        assert!(constant_time_eq(&a, &b));
        b[31] ^= 1;
        assert!(!constant_time_eq(&a, &b));
    }
}
