//! Hamming SECDED(72,64): single-error-correcting, double-error-detecting.
//!
//! The code every ECC DIMM ships: 64 data bits, 7 Hamming parity bits, and
//! one overall parity bit, in a 72-bit codeword. Layout follows the
//! textbook construction: codeword positions are numbered 1–72; parity
//! bits sit at the power-of-two positions (1, 2, 4, 8, 16, 32, 64); data
//! bits fill the remaining 64 positions 1–71; position 72 holds the
//! overall parity of positions 1–71.
//!
//! Decoding computes the 7-bit syndrome (XOR of failing parity positions)
//! plus the overall parity:
//!
//! | syndrome | overall parity | verdict |
//! |---|---|---|
//! | 0 | even | clean |
//! | s≠0 | odd | single-bit error at position `s` → corrected |
//! | 0 | odd | error in the overall parity bit itself → corrected |
//! | s≠0 | even | double-bit error → detected, uncorrectable |
//!
//! ```
//! use xxi_rel::ecc::{encode, decode, flip, DecodeResult};
//! let cw = encode(0xDEAD_BEEF);
//! assert_eq!(decode(flip(cw, 17)), DecodeResult::Corrected(0xDEAD_BEEF, 17));
//! assert_eq!(decode(flip(flip(cw, 3), 40)), DecodeResult::DoubleError);
//! ```

use serde::{Deserialize, Serialize};

/// A 72-bit codeword (bit `i` of the `u128` is codeword position `i`;
/// position 0 unused).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Codeword(pub u128);

/// Parity positions.
const PARITY_POS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Overall-parity position.
const OVERALL_POS: u32 = 72;

/// `GROUPS[i]`: the positions 1..=71 whose index has bit `i` set, i.e.
/// parity position `1 << i` and every position it covers. A syndrome bit
/// is the parity of one group, so decoding is seven `count_ones`.
const GROUPS: [u128; 7] = {
    let mut groups = [0u128; 7];
    let mut pos = 1;
    while pos <= 71 {
        let mut i = 0;
        while i < 7 {
            if pos >> i & 1 == 1 {
                groups[i] |= 1 << pos;
            }
            i += 1;
        }
        pos += 1;
    }
    groups
};

/// The data bits in codeword order: `(first position, first data bit,
/// length)` of each run between two parity positions. Data bit `i` sits
/// at the `i`-th position of 1..=71 that is not a power of two.
const RUNS: [(u32, u32, u32); 6] = [
    (3, 0, 1),
    (5, 1, 3),
    (9, 4, 7),
    (17, 11, 15),
    (33, 26, 31),
    (65, 57, 7),
];

/// The 7-bit syndrome of `cw`: bit `i` is the parity of `GROUPS[i]`.
#[inline]
fn syndrome(cw: u128) -> u32 {
    let mut s = 0;
    for (i, group) in GROUPS.iter().enumerate() {
        s |= ((cw & group).count_ones() & 1) << i;
    }
    s
}

/// Result of decoding a codeword.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecodeResult {
    /// No error; payload is the data.
    Clean(u64),
    /// A single-bit error was corrected; payload is the corrected data and
    /// the (1-based) codeword position that was flipped.
    Corrected(u64, u32),
    /// A double-bit error was detected; the data cannot be trusted.
    DoubleError,
}

impl DecodeResult {
    /// The recovered data, if the word is usable.
    pub fn data(self) -> Option<u64> {
        match self {
            DecodeResult::Clean(d) | DecodeResult::Corrected(d, _) => Some(d),
            DecodeResult::DoubleError => None,
        }
    }
}

/// Encode 64 data bits into a SECDED codeword.
pub fn encode(data: u64) -> Codeword {
    let mut cw: u128 = 0;
    // Scatter data bits, one run at a time.
    for (pos, bit, len) in RUNS {
        cw |= u128::from((data >> bit) & ((1 << len) - 1)) << pos;
    }
    // Hamming parities: parity bit p makes the XOR over all positions with
    // (index & p) != 0 even. The parity positions are still clear, and no
    // group covers another parity position, so the data syndrome is the
    // parity vector.
    let s = syndrome(cw);
    for (i, p) in PARITY_POS.into_iter().enumerate() {
        cw |= u128::from(s >> i & 1) << p;
    }
    // Overall parity over positions 1..=71.
    let ones = (cw & ((1u128 << 72) - 2)).count_ones(); // bits 1..=71 (72 not yet set)
    if ones % 2 == 1 {
        cw |= 1u128 << OVERALL_POS;
    }
    Codeword(cw)
}

/// Extract the data bits from a codeword (no checking).
pub fn extract(cw: Codeword) -> u64 {
    let mut data = 0u64;
    for (pos, bit, len) in RUNS {
        data |= ((cw.0 >> pos) as u64 & ((1 << len) - 1)) << bit;
    }
    data
}

/// Decode with single-error correction and double-error detection.
pub fn decode(cw: Codeword) -> DecodeResult {
    // Syndrome: XOR of positions of failing parity groups.
    let syndrome = syndrome(cw.0);
    // Overall parity of positions 1..=72 must be even.
    let mask = ((1u128 << 73) - 1) & !1u128; // bits 1..=72
    let overall_odd = (cw.0 & mask).count_ones() % 2 == 1;

    match (syndrome, overall_odd) {
        (0, false) => DecodeResult::Clean(extract(cw)),
        (0, true) => {
            // The overall parity bit itself flipped.
            let fixed = Codeword(cw.0 ^ (1u128 << OVERALL_POS));
            DecodeResult::Corrected(extract(fixed), OVERALL_POS)
        }
        (s, true) => {
            if s > 71 {
                // Syndrome points outside the codeword: multi-bit upset.
                return DecodeResult::DoubleError;
            }
            let fixed = Codeword(cw.0 ^ (1u128 << s));
            DecodeResult::Corrected(extract(fixed), s)
        }
        (_, false) => DecodeResult::DoubleError,
    }
}

/// Flip codeword bit at (1-based) position `pos`.
pub fn flip(cw: Codeword, pos: u32) -> Codeword {
    assert!((1..=72).contains(&pos));
    Codeword(cw.0 ^ (1u128 << pos))
}

/// The bit-loop codec the masks replaced, verbatim: the oracle the
/// mask-and-run codec must match bit for bit.
#[cfg(test)]
mod reference {
    use super::{Codeword, DecodeResult, OVERALL_POS, PARITY_POS};

    /// Data positions: 1..=71 excluding powers of two (64 of them).
    pub(super) fn data_positions() -> impl Iterator<Item = u32> {
        (1..=71u32).filter(|p| !p.is_power_of_two())
    }

    /// Encode 64 data bits into a SECDED codeword.
    pub(super) fn encode(data: u64) -> Codeword {
        let mut cw: u128 = 0;
        // Scatter data bits.
        for (i, pos) in data_positions().enumerate() {
            if (data >> i) & 1 == 1 {
                cw |= 1u128 << pos;
            }
        }
        // Hamming parities: parity bit p makes the XOR over all positions with
        // (index & p) != 0 even.
        for p in PARITY_POS {
            let mut parity = 0u32;
            for pos in 1..=71u32 {
                if pos != p && (pos & p) != 0 && (cw >> pos) & 1 == 1 {
                    parity ^= 1;
                }
            }
            if parity == 1 {
                cw |= 1u128 << p;
            }
        }
        // Overall parity over positions 1..=71.
        let ones = (cw & ((1u128 << 72) - 2)).count_ones(); // bits 1..=71 (72 not yet set)
        if ones % 2 == 1 {
            cw |= 1u128 << OVERALL_POS;
        }
        Codeword(cw)
    }

    /// Extract the data bits from a codeword (no checking).
    pub(super) fn extract(cw: Codeword) -> u64 {
        let mut data = 0u64;
        for (i, pos) in data_positions().enumerate() {
            if (cw.0 >> pos) & 1 == 1 {
                data |= 1u64 << i;
            }
        }
        data
    }

    /// Decode with single-error correction and double-error detection.
    pub(super) fn decode(cw: Codeword) -> DecodeResult {
        // Syndrome: XOR of positions of failing parity groups.
        let mut syndrome = 0u32;
        for p in PARITY_POS {
            let mut parity = 0u32;
            for pos in 1..=71u32 {
                if (pos & p) != 0 && (cw.0 >> pos) & 1 == 1 {
                    parity ^= 1;
                }
            }
            if parity == 1 {
                syndrome |= p;
            }
        }
        // Overall parity of positions 1..=72 must be even.
        let mask = ((1u128 << 73) - 1) & !1u128; // bits 1..=72
        let overall_odd = (cw.0 & mask).count_ones() % 2 == 1;

        match (syndrome, overall_odd) {
            (0, false) => DecodeResult::Clean(extract(cw)),
            (0, true) => {
                // The overall parity bit itself flipped.
                let fixed = Codeword(cw.0 ^ (1u128 << OVERALL_POS));
                DecodeResult::Corrected(extract(fixed), OVERALL_POS)
            }
            (s, true) => {
                if s > 71 {
                    // Syndrome points outside the codeword: multi-bit upset.
                    return DecodeResult::DoubleError;
                }
                let fixed = Codeword(cw.0 ^ (1u128 << s));
                DecodeResult::Corrected(extract(fixed), s)
            }
            (_, false) => DecodeResult::DoubleError,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{self, data_positions};
    use super::*;
    use xxi_core::rng::Rng64;

    /// `k` distinct positions in 1..=72.
    fn distinct_positions(rng: &mut Rng64, k: usize) -> Vec<u32> {
        let mut positions = Vec::with_capacity(k);
        while positions.len() < k {
            let p = rng.range_u64(1, 72) as u32;
            if !positions.contains(&p) {
                positions.push(p);
            }
        }
        positions
    }

    /// Checks the codec against [`reference`] on `words` seeded random
    /// words: the encoding and extraction of each, its decode clean, after
    /// every single flip, after a random double and a random triple flip,
    /// and on one arbitrary 128-bit pattern (bits outside 1..=72 included).
    fn check_against_reference(words: usize, seed: u64) {
        let mut rng = Rng64::new(seed);
        let same = |cw: Codeword, what: &str| {
            assert_eq!(decode(cw), reference::decode(cw), "{what}: {:#x}", cw.0);
            assert_eq!(extract(cw), reference::extract(cw), "{what}: {:#x}", cw.0);
        };
        for _ in 0..words {
            let data = rng.next_u64();
            let cw = encode(data);
            assert_eq!(cw, reference::encode(data), "encode({data:#x})");
            same(cw, "clean");
            for pos in 1..=72 {
                same(flip(cw, pos), "single flip");
            }
            for k in [2, 3] {
                let flipped = distinct_positions(&mut rng, k).into_iter().fold(cw, flip);
                same(flipped, "multi flip");
            }
            let raw = u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
            same(Codeword(raw), "raw pattern");
        }
    }

    #[test]
    fn masks_match_the_bit_loop_codec() {
        check_against_reference(10_000, 0xECC);
    }

    #[test]
    #[ignore = "~200k words; run in release with --include-ignored"]
    fn masks_match_the_bit_loop_codec_large() {
        check_against_reference(200_000, 0xECC2);
    }

    #[test]
    fn runs_cover_the_data_positions_in_order() {
        let from_runs: Vec<u32> = RUNS
            .iter()
            .flat_map(|&(pos, bit, len)| {
                assert_eq!(
                    bit,
                    RUNS.iter().take_while(|r| r.0 < pos).map(|r| r.2).sum()
                );
                pos..pos + len
            })
            .collect();
        assert_eq!(from_runs, data_positions().collect::<Vec<_>>());
    }

    #[test]
    fn roundtrip_without_errors() {
        for data in [
            0u64,
            1,
            u64::MAX,
            0xDEAD_BEEF_CAFE_BABE,
            0x5555_5555_5555_5555,
        ] {
            let cw = encode(data);
            assert_eq!(decode(cw), DecodeResult::Clean(data));
        }
    }

    #[test]
    fn corrects_every_single_bit_flip() {
        let data = 0xA5A5_0F0F_3C3C_9696u64;
        let cw = encode(data);
        for pos in 1..=72u32 {
            let corrupted = flip(cw, pos);
            match decode(corrupted) {
                DecodeResult::Corrected(d, p) => {
                    assert_eq!(d, data, "wrong data after correcting pos {pos}");
                    assert_eq!(p, pos, "wrong position identified");
                }
                other => panic!("pos {pos}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn detects_every_adjacent_double_flip() {
        let data = 0x0123_4567_89AB_CDEFu64;
        let cw = encode(data);
        for pos in 1..=71u32 {
            let corrupted = flip(flip(cw, pos), pos + 1);
            assert_eq!(
                decode(corrupted),
                DecodeResult::DoubleError,
                "adjacent flips at {pos},{} must be detected",
                pos + 1
            );
        }
    }

    #[test]
    fn detects_random_double_flips_exhaustive_pairs() {
        let data = 0xFEED_FACE_DEAD_BEEFu64;
        let cw = encode(data);
        for a in 1..=72u32 {
            for b in (a + 1)..=72u32 {
                let corrupted = flip(flip(cw, a), b);
                assert_eq!(
                    decode(corrupted),
                    DecodeResult::DoubleError,
                    "double flip ({a},{b}) undetected"
                );
            }
        }
    }

    #[test]
    fn random_data_random_single_flip_property() {
        let mut rng = Rng64::new(42);
        for _ in 0..2_000 {
            let data = rng.next_u64();
            let pos = rng.range_u64(1, 72) as u32;
            let corrupted = flip(encode(data), pos);
            assert_eq!(decode(corrupted).data(), Some(data));
        }
    }

    #[test]
    fn triple_flips_are_not_guaranteed_but_never_lie_silently_often() {
        // SECDED guarantees nothing about ≥3 flips; some alias to "single
        // error" and mis-correct. This test documents the behaviour: a
        // triple flip never decodes Clean with wrong data (that would need
        // syndrome 0 AND even parity, impossible with odd flip count ≤
        // positions... overall parity of 3 flips within 1..=72 is odd, so
        // Clean is impossible).
        let mut rng = Rng64::new(7);
        for _ in 0..500 {
            let data = rng.next_u64();
            let mut cw = encode(data);
            let mut positions = std::collections::HashSet::new();
            while positions.len() < 3 {
                positions.insert(rng.range_u64(1, 72) as u32);
            }
            for &p in &positions {
                cw = flip(cw, p);
            }
            if let DecodeResult::Clean(d) = decode(cw) {
                panic!("triple flip decoded Clean({d:#x}) — parity math broken");
            }
        }
    }

    #[test]
    fn extract_inverts_encode_scatter() {
        let data = 0x1122_3344_5566_7788u64;
        assert_eq!(extract(encode(data)), data);
    }

    #[test]
    fn data_positions_count_is_64() {
        assert_eq!(data_positions().count(), 64);
    }
}
