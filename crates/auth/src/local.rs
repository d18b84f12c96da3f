//! Local-password authentication.
//!
//! "Users retain the ability to authenticate directly on the XDMoD
//! instance" (§II-D) — User Group R in the paper's Fig. 4. Passwords are
//! stored as salted, iterated digests (simulated KDF; see
//! [`crate::hashing`]).

use crate::hashing::{digests_equal, kdf, mix_hash, Digest};
use std::collections::BTreeMap;

/// Iterations of the (simulated) KDF.
const KDF_ITERATIONS: u32 = 64;

/// Stored credential: salt + digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StoredCredential {
    salt: u64,
    digest: Digest,
}

/// Local password database for one XDMoD instance.
#[derive(Debug, Clone, Default)]
pub struct LocalAuthenticator {
    credentials: BTreeMap<String, StoredCredential>,
}

impl LocalAuthenticator {
    /// Empty password store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or reset) a user's password. The salt is derived from
    /// the username so the store is deterministic for tests; every user
    /// still gets a distinct salt.
    pub fn set_password(&mut self, username: &str, password: &str) {
        let salt = mix_hash(format!("salt:{username}").as_bytes());
        let digest = kdf(password, salt, KDF_ITERATIONS);
        self.credentials
            .insert(username.to_owned(), StoredCredential { salt, digest });
    }

    /// Verify a password. Unknown users and wrong passwords are
    /// indistinguishable to the caller.
    pub fn verify(&self, username: &str, password: &str) -> bool {
        match self.credentials.get(username) {
            Some(cred) => digests_equal(kdf(password, cred.salt, KDF_ITERATIONS), cred.digest),
            None => {
                // Burn the same work for unknown users (timing-shape
                // parity with the real thing).
                let _ = kdf(password, 0, KDF_ITERATIONS);
                false
            }
        }
    }

    /// Remove a user's credential.
    pub fn remove(&mut self, username: &str) -> bool {
        self.credentials.remove(username).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_password_verifies() {
        let mut auth = LocalAuthenticator::new();
        auth.set_password("alice", "correct horse");
        assert!(auth.verify("alice", "correct horse"));
        assert!(!auth.verify("alice", "wrong horse"));
        assert!(!auth.verify("bob", "correct horse"));
    }

    #[test]
    fn password_reset_invalidates_old() {
        let mut auth = LocalAuthenticator::new();
        auth.set_password("alice", "first");
        auth.set_password("alice", "second");
        assert!(!auth.verify("alice", "first"));
        assert!(auth.verify("alice", "second"));
    }

    #[test]
    fn salts_differ_per_user() {
        let mut auth = LocalAuthenticator::new();
        auth.set_password("alice", "same");
        auth.set_password("bob", "same");
        let a = auth.credentials.get("alice").unwrap();
        let b = auth.credentials.get("bob").unwrap();
        assert_ne!(a.salt, b.salt);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn remove_revokes_access() {
        let mut auth = LocalAuthenticator::new();
        auth.set_password("alice", "pw");
        assert!(auth.remove("alice"));
        assert!(!auth.verify("alice", "pw"));
        assert!(!auth.remove("alice"));
    }

    #[test]
    fn empty_password_is_a_credential_like_any_other() {
        let mut auth = LocalAuthenticator::new();
        auth.set_password("alice", "");
        assert!(auth.verify("alice", ""));
        assert!(!auth.verify("alice", " "));
    }
}
