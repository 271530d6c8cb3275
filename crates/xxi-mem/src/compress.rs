//! Frequent-pattern cache-line compression (FPC).
//!
//! §2.2 names compression as a specialization lever for energy-efficient
//! memory: *"Future memory-systems must seek energy efficiency through
//! specialization (e.g., through compression and support for streaming
//! data)"*. This is a faithful implementation of Alameldeen & Wood's
//! Frequent Pattern Compression at 32-bit-word granularity: each word is
//! encoded with a 3-bit prefix selecting one of eight patterns, from
//! zero-run to uncompressed.
//!
//! The compression ratio translates directly into energy: a line
//! compressed to half its size moves half the bits across the interconnect
//! and (in a compressed cache) doubles effective capacity.

/// A 64-byte cache line as 16 little-endian 32-bit words.
pub type Line = [u32; 16];

/// FPC pattern codes (3-bit prefix per word).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// Run of zero words (run length in 3 extra bits, up to 8 words).
    ZeroRun,
    /// 4-bit sign-extended value.
    Se4,
    /// 8-bit sign-extended value.
    Se8,
    /// 16-bit sign-extended value.
    Se16,
    /// Upper half zero (16-bit unsigned).
    HalfZero,
    /// 16-bit value sign-extended in each half-word.
    HalfSe8,
    /// All four bytes equal.
    RepeatedByte,
    /// Uncompressed 32-bit word.
    Uncompressed,
}

impl Pattern {
    /// Payload bits for this pattern (excluding the 3-bit prefix).
    pub fn payload_bits(self) -> u32 {
        match self {
            Pattern::ZeroRun => 3,
            Pattern::Se4 => 4,
            Pattern::Se8 => 8,
            Pattern::Se16 => 16,
            Pattern::HalfZero => 16,
            Pattern::HalfSe8 => 16,
            Pattern::RepeatedByte => 8,
            Pattern::Uncompressed => 32,
        }
    }
}

/// Classify one 32-bit word.
pub fn classify(w: u32) -> Pattern {
    if w == 0 {
        return Pattern::ZeroRun;
    }
    let s = w as i32;
    if (-8..8).contains(&s) {
        return Pattern::Se4;
    }
    if (-128..128).contains(&s) {
        return Pattern::Se8;
    }
    if (-32768..32768).contains(&s) {
        return Pattern::Se16;
    }
    if w & 0xFFFF_0000 == 0 {
        return Pattern::HalfZero;
    }
    // Each half-word is an 8-bit sign-extended value.
    let lo = (w & 0xFFFF) as u16 as i16;
    let hi = (w >> 16) as u16 as i16;
    if (-128..128).contains(&lo) && (-128..128).contains(&hi) {
        return Pattern::HalfSe8;
    }
    let b = w & 0xFF;
    if w == b | (b << 8) | (b << 16) | (b << 24) {
        return Pattern::RepeatedByte;
    }
    Pattern::Uncompressed
}

/// Compressed size of a line in bits (prefix + payload per word, zero runs
/// coalesced up to 8 words per token).
pub fn compressed_bits(line: &Line) -> u32 {
    let mut bits = 0;
    let mut i = 0;
    while i < 16 {
        let p = classify(line[i]);
        if p == Pattern::ZeroRun {
            // Coalesce up to 8 zero words into one token.
            let mut run = 1;
            while i + run < 16 && run < 8 && line[i + run] == 0 {
                run += 1;
            }
            bits += 3 + Pattern::ZeroRun.payload_bits();
            i += run;
        } else {
            bits += 3 + p.payload_bits();
            i += 1;
        }
    }
    bits
}

/// Compression ratio of a line: original bits / compressed bits (≥ ~1).
pub fn compression_ratio(line: &Line) -> f64 {
    512.0 / compressed_bits(line) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_patterns() {
        assert_eq!(classify(0), Pattern::ZeroRun);
        assert_eq!(classify(5), Pattern::Se4);
        assert_eq!(classify((-3i32) as u32), Pattern::Se4);
        assert_eq!(classify(100), Pattern::Se8);
        assert_eq!(classify((-100i32) as u32), Pattern::Se8);
        assert_eq!(classify(30_000), Pattern::Se16);
        assert_eq!(classify(0xFFFF), Pattern::HalfZero);
        assert_eq!(classify(0x0042_0017), Pattern::HalfSe8);
        assert_eq!(classify(0xABAB_ABAB), Pattern::RepeatedByte);
        assert_eq!(classify(0xDEAD_BEEF), Pattern::Uncompressed);
    }

    #[test]
    fn zero_line_compresses_maximally() {
        let line = [0u32; 16];
        // Two zero-run tokens (8 + 8 words) of 6 bits each.
        assert_eq!(compressed_bits(&line), 12);
        assert!(compression_ratio(&line) > 40.0);
    }

    #[test]
    fn incompressible_line_pays_prefix_tax() {
        let mut line = [0u32; 16];
        for (i, w) in line.iter_mut().enumerate() {
            *w = 0x9E37_79B9u32.wrapping_mul(i as u32 + 1) | 0x8000_0001;
        }
        let bits = compressed_bits(&line);
        // All words uncompressed: 16 × 35 = 560 > 512.
        assert_eq!(bits, 560);
        assert!(compression_ratio(&line) < 1.0);
    }

    #[test]
    fn small_integer_array_compresses_well() {
        // Typical "array of small counters" data.
        let mut line = [0u32; 16];
        for (i, w) in line.iter_mut().enumerate() {
            *w = (i as u32) % 7;
        }
        let ratio = compression_ratio(&line);
        assert!(ratio > 3.0, "ratio={ratio}");
    }

    #[test]
    fn zero_run_coalescing_capped_at_eight() {
        let mut line = [0u32; 16];
        line[8] = 0xDEAD_BEEF; // split runs: 8 zeros, 1 word, 7 zeros
        let bits = compressed_bits(&line);
        // 6 (run of 8) + 35 (uncompressed) + 6 (run of 7) = 47.
        assert_eq!(bits, 47);
    }
}
