//! The real runtime vs the analytic model: xxi-stack's work-stealing pool
//! must scale the way xxi-cpu's Hill–Marty model predicts (qualitatively),
//! closing the loop between the paper's parallelism *models* and actual
//! parallel *code*.
//!
//! The one-thread baseline is `Serial`: it runs the same chunks inline,
//! with no claimers to push and no caller to wake. `Pool::new(4)` runs a
//! scope on exactly its four workers while the caller waits.

use std::sync::atomic::{AtomicU64, Ordering};

use xxi::core::par::{map, Parallelism, Serial};
use xxi::cpu::hillmarty::speedup_amdahl;
use xxi::stack::Pool;

fn timed<F: FnOnce()>(f: F) -> f64 {
    let t0 = std::time::Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

fn cpu_bound_kernel(i: usize) -> f64 {
    let mut x = i as f64 + 1.0;
    for _ in 0..3_000 {
        x = (x * 1.0000001).sqrt() + 0.25;
    }
    x
}

/// Items per index: the work is chunked so an index is worth claiming.
const GRAIN: usize = 1_000;

/// Sum of `cpu_bound_kernel` over `0..n` (`n` a multiple of `GRAIN`) on
/// `exec`, one index per chunk.
fn parallel_kernel_sum(exec: &dyn Parallelism, n: usize) -> f64 {
    map(exec, n / GRAIN, |c| {
        (c * GRAIN..(c + 1) * GRAIN)
            .map(cpu_bound_kernel)
            .sum::<f64>()
    })
    .into_iter()
    .sum()
}

#[test]
fn pool_scaling_is_amdahl_shaped() {
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    if hw < 4 {
        eprintln!("skipping: needs >=4 hardware threads, have {hw}");
        return;
    }
    let n = 120_000usize;
    let p4 = Pool::new(4);
    // Warmup.
    parallel_kernel_sum(&p4, 4 * GRAIN);

    let t1 = timed(|| {
        parallel_kernel_sum(&Serial, n);
    });
    let t4 = timed(|| {
        parallel_kernel_sum(&p4, n);
    });
    let measured = t1 / t4;
    // Fully parallel workload: Amdahl predicts ~4; accept ≥2 for noisy CI
    // machines, and it must never exceed the ideal bound.
    let ideal = speedup_amdahl(1.0, 4.0);
    assert!(
        measured > 2.0,
        "4-thread speedup {measured} too low (t1={t1:.3}s t4={t4:.3}s)"
    );
    assert!(
        measured < ideal * 1.3,
        "speedup {measured} exceeds ideal {ideal}"
    );
}

#[test]
fn pool_handles_serial_fraction_like_amdahl() {
    // A workload with a serial section: run serial part on one task, then
    // the parallel part; speedup must be visibly below the fully-parallel
    // case, in Amdahl's direction.
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    if hw < 4 {
        eprintln!("skipping: needs >=4 hardware threads");
        return;
    }
    let n = 60_000usize;
    let serial_n = 30_000usize; // f = 2/3 parallel by work count

    let run = |exec: &dyn Parallelism| {
        parallel_kernel_sum(exec, 4 * GRAIN); // warm
        timed(|| {
            // Serial section (single task).
            exec.for_tasks(1, &|_| {
                std::hint::black_box((0..serial_n).map(cpu_bound_kernel).sum::<f64>());
            });
            // Parallel section.
            parallel_kernel_sum(exec, n);
        })
    };

    let t1 = run(&Serial);
    let t4 = run(&Pool::new(4));
    let measured = t1 / t4;
    let f = n as f64 / (n + serial_n) as f64;
    let predicted = speedup_amdahl(f, 4.0);
    // Same regime: between 1 and the fully-parallel ideal, near Amdahl.
    assert!(measured > 1.2, "measured {measured}");
    assert!(
        measured < 4.0,
        "serial fraction must cap speedup: {measured}"
    );
    assert!(
        (measured / predicted) > 0.5 && (measured / predicted) < 2.0,
        "measured {measured} vs Amdahl {predicted}"
    );
}

#[test]
fn pool_correctness_under_load() {
    let pool = Pool::new(4);
    // Many waves of small indices, each wave a nested scope per index,
    // with the count checked between waves.
    let counter = AtomicU64::new(0);
    for wave in 0..20 {
        pool.run_scoped(50, &|_| {
            pool.run_scoped(10, &|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::SeqCst), (wave + 1) * 500);
    }
}
