//! Benches for the analytic models and codecs: ECC, wear leveling,
//! compression, Hill–Marty, Zipf sampling. Run with
//! `cargo bench --bench models` (optionally a substring filter).

use xxi_bench::Bench;
use xxi_core::rng::{Rng64, Zipf};
use xxi_cpu::hillmarty::{best_symmetric_r, speedup_symmetric};
use xxi_mem::compress::{compressed_bits, Line};
use xxi_mem::nvm::{NvmDevice, NvmTech};
use xxi_mem::wear::StartGap;
use xxi_rel::ecc::{decode, encode, flip};

fn bench_ecc(h: &mut Bench) {
    let mut g = h.group("ecc");
    g.throughput(10_000);
    let mut rng = Rng64::new(1);
    let data: Vec<u64> = (0..10_000).map(|_| rng.next_u64()).collect();
    g.bench("encode_10k", || {
        let mut acc = 0u128;
        for &d in &data {
            acc ^= encode(d).0;
        }
        acc
    });
    let mut rng = Rng64::new(2);
    let words: Vec<_> = (0..10_000)
        .map(|_| flip(encode(rng.next_u64()), rng.range_u64(1, 72) as u32))
        .collect();
    g.bench("decode_corrupted_10k", || {
        let mut fixed = 0u64;
        for &w in &words {
            if decode(w).data().is_some() {
                fixed += 1;
            }
        }
        fixed
    });
}

fn bench_wear_leveling(h: &mut Bench) {
    let mut g = h.group("wear");
    g.throughput(100_000);
    g.bench("start_gap_100k_writes", || {
        let mut sg = StartGap::new(NvmDevice::new(NvmTech::Pcm, 4097), 100);
        for i in 0..100_000usize {
            sg.write(i % 4096);
        }
        sg.gap_moves()
    });
    g.bench("raw_nvm_100k_writes", || {
        let mut dev = NvmDevice::new(NvmTech::Pcm, 4097);
        for i in 0..100_000usize {
            dev.write(i % 4096);
        }
        dev.max_wear()
    });
}

fn bench_compression(h: &mut Bench) {
    let mut rng = Rng64::new(3);
    let lines: Vec<Line> = (0..10_000)
        .map(|i| {
            let mut l = [0u32; 16];
            for (j, w) in l.iter_mut().enumerate() {
                *w = match i % 3 {
                    0 => (j as u32) % 5,        // compressible
                    1 => rng.next_u64() as u32, // random
                    _ => 0,                     // zeros
                };
            }
            l
        })
        .collect();
    let mut g = h.group("compress");
    g.throughput(10_000);
    g.bench("fpc_10k_lines", || {
        let mut bits = 0u64;
        for l in &lines {
            bits += compressed_bits(l) as u64;
        }
        bits
    });
}

fn bench_hillmarty(h: &mut Bench) {
    let mut g = h.group("hillmarty");
    g.bench("best_r_scan_n4096", || best_symmetric_r(0.975, 4096.0));
    g.bench("speedup_grid_100x100", || {
        let mut acc = 0.0;
        for fi in 1..=100 {
            let f = fi as f64 / 101.0;
            for ri in 1..=100 {
                acc += speedup_symmetric(f, 256.0, ri as f64 * 2.56);
            }
        }
        acc
    });
}

fn bench_zipf(h: &mut Bench) {
    let mut g = h.group("zipf");
    g.throughput(1_000_000);
    let z = Zipf::new(100_000, 0.99);
    let mut rng = Rng64::new(8);
    g.bench("sample_1m_over_100k", || {
        let mut acc = 0usize;
        for _ in 0..1_000_000 {
            acc = acc.wrapping_add(z.sample(&mut rng));
        }
        acc
    });
}

fn main() {
    let mut h = Bench::from_args();
    bench_ecc(&mut h);
    bench_wear_leveling(&mut h);
    bench_compression(&mut h);
    bench_hillmarty(&mut h);
    bench_zipf(&mut h);
    h.finish();
}
