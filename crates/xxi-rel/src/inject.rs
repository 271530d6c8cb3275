//! Bit-flip fault injection over an ECC-protected memory array.
//!
//! Drives the SECDED implementation with the fault processes that
//! `xxi-tech::ser` predicts, classifying every read into the standard
//! taxonomy: **corrected** (single flip), **DUE** (detected uncorrectable —
//! double flip caught by SECDED), and **SDC** (silent data corruption —
//! the decode returned data that differs from what was written without
//! signalling). For SECDED, SDC requires ≥3 aliased flips, so observing
//! zero SDC at realistic rates *is* the experiment's expected result; the
//! injector lets E3 verify it rather than assume it.

use crate::ecc::{decode, encode, flip, Codeword, DecodeResult};
use xxi_core::metrics::Metrics;
use xxi_core::rng::Rng64;

/// Outcome classification of one read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Word read back clean.
    Clean,
    /// Single-bit error corrected transparently.
    Corrected,
    /// Detected uncorrectable error.
    Due,
    /// Silent data corruption: wrong data, no signal. The disaster case.
    Sdc,
}

impl Outcome {
    /// Every outcome, in declaration order.
    const ALL: [Outcome; 4] = [
        Outcome::Clean,
        Outcome::Corrected,
        Outcome::Due,
        Outcome::Sdc,
    ];

    /// The `metrics` counter that tallies this outcome.
    fn counter(self) -> &'static str {
        match self {
            Outcome::Clean => "clean",
            Outcome::Corrected => "corrected",
            Outcome::Due => "due",
            Outcome::Sdc => "sdc",
        }
    }
}

/// An ECC-protected word array with fault injection.
pub struct FaultInjector {
    words: Vec<(u64, Codeword)>,
    rng: Rng64,
    /// `flips_injected`, `reads`, `clean`, `corrected`, `due`, `sdc`.
    pub metrics: Metrics,
}

impl FaultInjector {
    /// An array of `n` words initialized to a deterministic pattern.
    pub fn new(n: usize, seed: u64) -> FaultInjector {
        let mut rng = Rng64::new(seed);
        let words = (0..n)
            .map(|_| {
                let d = rng.next_u64();
                (d, encode(d))
            })
            .collect();
        FaultInjector {
            words,
            rng,
            metrics: Metrics::new(),
        }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the array is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Inject `n` uniformly random bit flips across the array (codeword
    /// bits, including check bits — radiation does not respect layout).
    pub fn inject(&mut self, n: u64) {
        for _ in 0..n {
            let w = self.rng.below(self.words.len() as u64) as usize;
            let pos = self.rng.range_u64(1, 72) as u32;
            self.words[w].1 = flip(self.words[w].1, pos);
        }
        post(&mut self.metrics, "flips_injected", n);
    }

    /// Read word `i`, classify, and (as hardware would) write back the
    /// corrected codeword on correction.
    pub fn read(&mut self, i: usize) -> Outcome {
        let out = self.classify(i);
        self.metrics.incr("reads");
        self.metrics.incr(out.counter());
        out
    }

    /// [`FaultInjector::read`] without the counters.
    fn classify(&mut self, i: usize) -> Outcome {
        let (golden, cw) = self.words[i];
        match decode(cw) {
            DecodeResult::Clean(d) => {
                if d == golden {
                    Outcome::Clean
                } else {
                    Outcome::Sdc
                }
            }
            DecodeResult::Corrected(d, _) => {
                if d == golden {
                    // Write back the repaired word.
                    self.words[i].1 = encode(d);
                    Outcome::Corrected
                } else {
                    Outcome::Sdc
                }
            }
            DecodeResult::DoubleError => Outcome::Due,
        }
    }

    /// Read the whole array, returning (clean, corrected, due, sdc). The
    /// outcomes are tallied locally and posted to `metrics` once.
    pub fn scrub_pass(&mut self) -> (u64, u64, u64, u64) {
        let mut tally = [0u64; 4];
        for i in 0..self.words.len() {
            tally[self.classify(i) as usize] += 1;
        }
        post(&mut self.metrics, "reads", self.words.len() as u64);
        for (out, n) in Outcome::ALL.into_iter().zip(tally) {
            post(&mut self.metrics, out.counter(), n);
        }
        let [clean, corrected, due, sdc] = tally;
        (clean, corrected, due, sdc)
    }
}

/// Adds `n` to counter `name`, creating it only when `n > 0`, as `n`
/// single increments would.
fn post(metrics: &mut Metrics, name: &'static str, n: u64) {
    if n > 0 {
        metrics.count(name, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_all_clean() {
        let mut fi = FaultInjector::new(64, 1);
        let (clean, corrected, due, sdc) = fi.scrub_pass();
        assert_eq!(clean, 64);
        assert_eq!(corrected + due + sdc, 0);
    }

    #[test]
    fn sparse_faults_all_corrected() {
        // Fewer flips than words ⇒ mostly one flip per word ⇒ corrected.
        let mut fi = FaultInjector::new(4096, 2);
        fi.inject(64);
        let (_, corrected, due, sdc) = fi.scrub_pass();
        assert_eq!(sdc, 0, "SECDED must not silently corrupt at low rates");
        assert!(
            corrected >= 55,
            "corrected={corrected} (birthday collisions allowed)"
        );
        assert!(due <= 5);
    }

    #[test]
    fn correction_writeback_heals_the_array() {
        let mut fi = FaultInjector::new(256, 3);
        fi.inject(40);
        fi.scrub_pass();
        // Second pass: everything the first pass corrected is now clean.
        let (clean, corrected, due, _) = fi.scrub_pass();
        assert_eq!(clean + due, 256);
        assert_eq!(corrected, 0);
    }

    #[test]
    fn dense_faults_produce_dues_but_no_sdc() {
        // Hammer a tiny array so words take ≥2 flips.
        let mut fi = FaultInjector::new(8, 4);
        fi.inject(24);
        let (_, _, due, sdc) = fi.scrub_pass();
        assert!(due > 0, "with 3 flips/word expected, some DUEs must appear");
        // 3+ aliased flips *can* in principle mis-correct; with 8 words and
        // this seed the expected SDC count is ~0-1. Just bound it.
        assert!(sdc <= 1, "sdc={sdc}");
    }

    #[test]
    fn scrub_pass_posts_what_reading_every_word_counts() {
        for (words, flips) in [(0, 0), (64, 0), (256, 40), (8, 24)] {
            let (mut pass, mut reads) =
                (FaultInjector::new(words, 9), FaultInjector::new(words, 9));
            pass.inject(flips);
            reads.inject(flips);
            let tally = pass.scrub_pass();
            let mut by_read = [0u64; 4];
            for i in 0..words {
                by_read[reads.read(i) as usize] += 1;
            }
            assert_eq!(tally, (by_read[0], by_read[1], by_read[2], by_read[3]));
            let counters = |fi: &FaultInjector| fi.metrics.counters().collect::<Vec<_>>();
            assert_eq!(counters(&pass), counters(&reads), "{words} words");
            assert_eq!(pass.words, reads.words, "{words} words");
        }
    }

    #[test]
    fn counters_are_consistent() {
        let mut fi = FaultInjector::new(128, 5);
        fi.inject(20);
        fi.scrub_pass();
        let m = &fi.metrics;
        assert_eq!(m.counter("reads"), 128);
        assert_eq!(
            m.counter("clean") + m.counter("corrected") + m.counter("due") + m.counter("sdc"),
            128
        );
        assert_eq!(m.counter("flips_injected"), 20);
    }
}
