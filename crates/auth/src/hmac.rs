//! HMAC-SHA256 (RFC 2104) over the hand-rolled hash, pinned to the RFC 4231
//! test vectors.

use crate::hash::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// An HMAC-SHA256 key with its two pad blocks already absorbed.
///
/// HMAC hashes `key ⊕ ipad` in front of the message and `key ⊕ opad` in
/// front of the inner digest. Both are one full block, so a key made once
/// keeps the two SHA-256 states that follow them and every MAC clones those
/// states instead of hashing the pads again: a short message then costs
/// the compressions of its own blocks plus one for the outer hash.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Prepares `key`: keys longer than the 64-byte block are hashed down
    /// first, shorter keys are zero-padded (the RFC 2104 preprocessing).
    pub fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            block_key[..DIGEST_LEN].copy_from_slice(&Sha256::digest(key));
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        let padded = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&block_key.map(|b| b ^ pad));
            h
        };
        HmacKey {
            inner: padded(0x36),
            outer: padded(0x5c),
        }
    }

    /// `HMAC-SHA256(key, parts[0] ‖ parts[1] ‖ …)`: the parts are streamed
    /// into the hash, so a framed message needs no joined copy.
    pub fn mac(&self, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// `HMAC-SHA256(key, msg)`, for one-off keys (see [`HmacKey`] for a key
/// that MACs many messages).
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).mac(&[msg])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 4231 test cases 1, 2, 6, and 7 — short key, short-key-with-
    /// padding, oversized key, and oversized key with long data.
    #[test]
    fn rfc4231_vectors() {
        // Case 1.
        assert_eq!(
            hex(&hmac_sha256(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        // Case 2: "Jefe" / "what do ya want for nothing?".
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // Case 6: 131-byte key (hashed down), "Test Using Larger Than
        // Block-Size Key - Hash Key First".
        assert_eq!(
            hex(&hmac_sha256(
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
        // Case 7: 131-byte key, long data.
        assert_eq!(
            hex(&hmac_sha256(
                &[0xaa; 131],
                b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm."
            )),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    /// RFC 4231 test cases 3 and 4: 50 bytes of data under a 20- and a
    /// 25-byte key.
    #[test]
    fn rfc4231_vectors_fifty_byte_data() {
        // Case 3: 20-byte 0xaa key, 50 bytes of 0xdd.
        assert_eq!(
            hex(&hmac_sha256(&[0xaa; 20], &[0xdd; 50])),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
        // Case 4: the 25-byte key 0x01..=0x19, 50 bytes of 0xcd.
        let key: Vec<u8> = (0x01..=0x19).collect();
        assert_eq!(
            hex(&hmac_sha256(&key, &[0xcd; 50])),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    /// Streaming the message in parts gives the MAC of the joined bytes.
    #[test]
    fn parts_stream_like_one_message() {
        let key = HmacKey::new(b"parts-key");
        let msg: Vec<u8> = (0..200u8).collect();
        for cut in [0, 1, 13, 63, 64, 65, 150, 200] {
            assert_eq!(
                key.mac(&[&msg[..cut], &msg[cut..]]),
                hmac_sha256(b"parts-key", &msg),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn distinct_keys_distinct_macs() {
        let m = b"the same message";
        assert_ne!(hmac_sha256(b"key-a", m), hmac_sha256(b"key-b", m));
        assert_ne!(hmac_sha256(b"key-a", m), hmac_sha256(b"key-a", b"other"));
    }
}
