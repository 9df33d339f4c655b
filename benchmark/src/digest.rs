//! FNV-1a (64-bit): the one hash behind `inputs_digest`,
//! `ranked_digest` and the per-answer fingerprints the measured passes
//! are compared against. Hand-rolled so the digest cannot change with a
//! toolchain's `DefaultHasher`.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A string plus a terminator, so `["ab","c"]` and `["a","bc"]`
    /// digest differently.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn tokens(&mut self, tokens: &[String]) {
        for t in tokens {
            self.str(t);
        }
        self.bytes(&[0xfe]);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn token_boundaries_are_part_of_the_digest() {
        let digest = |groups: &[&[&str]]| {
            let mut h = Fnv::default();
            for g in groups {
                let toks: Vec<String> = g.iter().map(|s| s.to_string()).collect();
                h.tokens(&toks);
            }
            h.finish()
        };
        assert_ne!(digest(&[&["ab", "c"]]), digest(&[&["a", "bc"]]));
        assert_ne!(digest(&[&["a"], &["b"]]), digest(&[&["a", "b"]]));
        assert_eq!(digest(&[&["a", "b"]]), digest(&[&["a", "b"]]));
    }
}
