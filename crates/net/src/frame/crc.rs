//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`), two kernels
//! with one output.
//!
//! - **Slicing-by-16** ([`crc32_sliced`]): sixteen table lookups fold
//!   sixteen bytes. Portable; it takes every input on targets other than
//!   x86_64, on CPUs without `PCLMULQDQ`, every input shorter than 64
//!   bytes and the last `len % 16` bytes of every longer one.
//! - **Carry-less multiply** (x86_64 `PCLMULQDQ`, after Intel's "Fast
//!   CRC Computation for Generic Polynomials Using PCLMULQDQ", 2009):
//!   four 128-bit lanes fold 64 bytes per step, then fold into one lane,
//!   reduce 128 → 64 bits and finish with a Barrett reduction to 32. It
//!   needs four blocks to start folding, so inputs under 64 bytes stay
//!   on the tables. Chosen at run time, once per call, by
//!   `is_x86_feature_detected!`; its one `unsafe` is that call.

/// CRC-32 slicing-by-16 lookup tables, built at compile time — the build
/// has no crc crate and needs none. `CRC_TABLES[0]` is the classic
/// bytewise table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, which is what lets sixteen input bytes fold in one
/// step.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Fold `bytes` into the running (pre-inverted) CRC register `c` with
/// the fastest kernel this CPU has for them.
fn crc32_update(c: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 64 {
        if let Some(c) = clmul::update(c, bytes) {
            return c;
        }
    }
    crc32_sliced(c, bytes)
}

/// Fold `bytes` into the register `c`, sixteen bytes per step and the
/// tail bytewise.
fn crc32_sliced(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    // Input byte `k` of a step is followed by `15 - k` more, so it is
    // looked up in table `15 - k`.
    let fold = |word: u32, first: usize| {
        t[first][(word & 0xFF) as usize]
            ^ t[first - 1][((word >> 8) & 0xFF) as usize]
            ^ t[first - 2][((word >> 16) & 0xFF) as usize]
            ^ t[first - 3][(word >> 24) as usize]
    };
    let mut chunks = bytes.chunks_exact(16);
    for w in &mut chunks {
        let word = |k: usize| u32::from_le_bytes([w[k], w[k + 1], w[k + 2], w[k + 3]]);
        c = fold(word(0) ^ c, 15) ^ fold(word(4), 11) ^ fold(word(8), 7) ^ fold(word(12), 3);
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    use super::crc32_sliced;

    // Folding constants: `x^e mod P(x)`, bit-reflected and shifted left
    // one place, for the fold distances below (the test
    // `clmul_constants_derive_from_the_polynomial` recomputes them).
    /// `e = 4·128 + 32`: folds a lane's low half 512 bits forward.
    pub(super) const K1: i64 = 0x1_5444_2bd4;
    /// `e = 4·128 − 32`: folds a lane's high half 512 bits forward.
    pub(super) const K2: i64 = 0x1_c6e4_1596;
    /// `e = 128 + 32`: the low half, 128 bits forward.
    pub(super) const K3: i64 = 0x1_7519_97d0;
    /// `e = 128 − 32`: the high half, 128 bits forward.
    pub(super) const K4: i64 = 0x0_ccaa_009e;
    /// `e = 64`: the 96 → 64-bit step.
    pub(super) const K5: i64 = 0x1_63cd_6124;
    /// `P(x)` itself, bit-reflected over 33 bits.
    pub(super) const P: i64 = 0x1_db71_0641;
    /// Barrett's `μ = ⌊x^64 / P(x)⌋`, bit-reflected over 33 bits.
    pub(super) const MU: i64 = 0x1_f701_1641;

    /// [`fold`] over `bytes` when this CPU has `PCLMULQDQ`; `None` sends
    /// the caller to the tables.
    pub(super) fn update(c: u32, bytes: &[u8]) -> Option<u32> {
        if !is_x86_feature_detected!("pclmulqdq") {
            return None;
        }
        #[allow(unsafe_code)]
        // SAFETY: `fold`'s only requirement is the `pclmulqdq` target
        // feature, detected on this CPU just above.
        Some(unsafe { fold(c, bytes) })
    }

    /// One 16-byte block as a vector, first byte lowest.
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8]) -> __m128i {
        let half = |at: usize| i64::from_le_bytes(block[at..at + 8].try_into().expect("8 bytes"));
        _mm_set_epi64x(half(8), half(0))
    }

    /// Carry `lane` forward over the distance `k` encodes and add the
    /// block that lands on it: low half × `k.lo`, high half × `k.hi`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(lane: __m128i, k: __m128i, block: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(lane, k);
        let hi = _mm_clmulepi64_si128::<0x11>(lane, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), block)
    }

    /// Fold `bytes` into the register `c`: 64 bytes per step in four
    /// lanes, then one lane at a time, the sub-block tail on the tables.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(c: u32, bytes: &[u8]) -> u32 {
        let mut quads = bytes.chunks_exact(64);
        let Some(first) = quads.next() else {
            return crc32_sliced(c, bytes);
        };
        let mut lanes = [0, 16, 32, 48].map(|at| load(&first[at..at + 16]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(c as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in &mut quads {
            for (lane, block) in lanes.iter_mut().zip(quad.chunks_exact(16)) {
                *lane = fold_into(*lane, k1k2, load(block));
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [mut x, l1, l2, l3] = lanes;
        x = fold_into(fold_into(fold_into(x, k3k4, l1), k3k4, l2), k3k4, l3);
        let mut blocks = quads.remainder().chunks_exact(16);
        for block in &mut blocks {
            x = fold_into(x, k3k4, load(block));
        }
        // 128 → 64 bits: the low half × k4 onto the high half, then the
        // low 32 bits of that × k5 onto the rest.
        let low32 = _mm_setr_epi32(-1, 0, -1, 0);
        x = _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x10>(x, k3k4));
        let k5 = _mm_set_epi64x(0, K5);
        let rest = _mm_srli_si128::<4>(x);
        x = _mm_xor_si128(_mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5), rest);
        // Barrett: subtract ⌊x·μ⌋·P, leaving the 32-bit remainder in
        // bits 32..64.
        let pmu = _mm_set_epi64x(MU, P);
        let t = _mm_and_si128(x, low32);
        let t = _mm_and_si128(_mm_clmulepi64_si128::<0x10>(t, pmu), low32);
        x = _mm_xor_si128(x, _mm_clmulepi64_si128::<0x00>(t, pmu));
        let c = _mm_cvtsi128_si32(_mm_srli_si128::<4>(x)) as u32;
        crc32_sliced(c, blocks.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise table loop both kernels replaced: the reference they
    /// must match on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// The carry-less-multiply kernel called directly, past the size
    /// selection. On x86_64 its absence is a failure, not a skip: a
    /// silent fallback to the tables must not pass for it.
    #[cfg(target_arch = "x86_64")]
    fn crc32_clmul(bytes: &[u8]) -> Option<u32> {
        let c = clmul::update(0xFFFF_FFFF, bytes).expect("this x86_64 CPU lacks pclmulqdq");
        Some(c ^ 0xFFFF_FFFF)
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn crc32_clmul(_: &[u8]) -> Option<u32> {
        None
    }

    fn crc32_table(bytes: &[u8]) -> u32 {
        crc32_sliced(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    /// Deterministic bytes with no period a kernel could fold away.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    /// Every kernel, whole and resumed at `split`, is the bytewise CRC.
    fn assert_kernels_agree(bytes: &[u8], split: usize) {
        let want = crc32_bytewise(bytes);
        let len = bytes.len();
        assert_eq!(crc32(bytes), want, "dispatch, len {len}");
        assert_eq!(crc32_table(bytes), want, "tables, len {len}");
        if let Some(got) = crc32_clmul(bytes) {
            assert_eq!(got, want, "clmul, len {len}");
        }
        let (head, tail) = bytes.split_at(split.min(len));
        let resumed = crc32_update(crc32_update(0xFFFF_FFFF, head), tail) ^ 0xFFFF_FFFF;
        assert_eq!(resumed, want, "resumed at {split}, len {len}");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        /// Any length (so every remainder after the 64- and 16-byte
        /// steps) and any split point (so a resumed CRC crosses between
        /// the kernels at every offset).
        #[test]
        fn sliced_crc32_equals_bytewise_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..4096),
            split in 0usize..4096,
        ) {
            assert_kernels_agree(&bytes, split);
        }
    }

    #[test]
    fn every_length_and_offset_agrees() {
        let buf = noise(2048 + 3);
        for len in 0..2048 {
            for offset in 0..3 {
                assert_kernels_agree(&buf[offset..offset + len], len / 2);
            }
        }
    }

    #[test]
    fn lengths_around_the_block_edges_agree() {
        let buf = noise(129);
        for len in [15usize, 16, 17, 63, 64, 65, 127, 128, 129] {
            for split in [0, 1, len / 2, len.saturating_sub(16), len] {
                assert_kernels_agree(&buf[..len], split);
            }
        }
    }

    #[test]
    fn a_buffer_past_a_mebibyte_agrees_with_the_tables() {
        let buf = noise((1 << 20) + 77);
        let want = crc32_table(&buf);
        assert_eq!(crc32(&buf), want);
        if let Some(got) = crc32_clmul(&buf) {
            assert_eq!(got, want);
        }
    }

    /// The folding and Barrett constants, derived from `0xEDB8_8320` in
    /// GF(2) the way `CRC_TABLES` is: in the reflected domain multiplying
    /// by `x` is one shift right, reduced by the polynomial when a bit
    /// falls off.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_constants_derive_from_the_polynomial() {
        const POLY: u32 = 0xEDB8_8320;
        // x^e mod P(x), reflected, shifted left one place.
        let k = |e: u32| {
            let mut r = 0x8000_0000u32; // x^0
            for _ in 0..e {
                r = if r & 1 != 0 { POLY ^ (r >> 1) } else { r >> 1 };
            }
            i64::from(r) << 1
        };
        assert_eq!(k(4 * 128 + 32), clmul::K1);
        assert_eq!(k(4 * 128 - 32), clmul::K2);
        assert_eq!(k(128 + 32), clmul::K3);
        assert_eq!(k(128 - 32), clmul::K4);
        assert_eq!(k(64), clmul::K5);
        // P(x) with its x^32 term, reflected over 33 bits.
        let p = (1u64 << 32) | u64::from(POLY.reverse_bits());
        let reflect33 = |v: u64| (v.reverse_bits() >> 31) as i64;
        assert_eq!(reflect33(p), clmul::P);
        // μ = ⌊x^64 / P(x)⌋ by long division.
        let (mut rem, mut mu) = (1u128 << 64, 0u64);
        for shift in (0..=32).rev() {
            if rem >> (shift + 32) & 1 != 0 {
                rem ^= u128::from(p) << shift;
                mu |= 1 << shift;
            }
        }
        assert_eq!(reflect33(mu), clmul::MU);
    }
}
