//! A hardened medical SoC: the §2.4 "llities" composed into one device.
//!
//! The paper's implantable-device scenario requires, on one chip:
//! information-flow tracking (pacemaker hacking is its example!),
//! compartmentalized firmware, a blinded cache, failsafe operation, and
//! ECC-protected state — each demonstrated here in sequence on the same
//! models the test suite verifies.
//!
//! Run with: `cargo run --example hardened_soc`

use xxi::mem::cache::{Cache, CacheConfig, Replacement};
use xxi::rel::ecc::{decode, encode, flip, DecodeResult};
use xxi::rel::failsafe::{FailsafeMachine, Mode};
use xxi::sec::ift::{Instr, Machine, Policy};
use xxi::sec::protection::{AccessKind, DomainId, Perms, ProtectionMatrix, RegionId};
use xxi::sec::sidechannel::{prime_probe_attack, prime_probe_attack_partitioned, PartitionedCache};

fn cache_cfg() -> CacheConfig {
    CacheConfig {
        size_bytes: 16 * 1024,
        line_bytes: 64,
        ways: 4,
        replacement: Replacement::Lru,
        write_allocate: true,
    }
}

fn main() {
    println!("== 1. DIFT: the telemetry parser cannot hijack the pacing loop ==\n");
    // Untrusted telemetry flows toward an indirect jump; the monitor traps.
    let mut m = Machine::new(Policy::integrity(), 32, vec![0x4141_4141]);
    let firmware = [
        Instr::In { d: 0 }, // radio packet (untrusted)
        Instr::Const { d: 1, imm: 16 },
        Instr::Add { d: 2, a: 0, b: 1 }, // attacker-derived "handler"
        Instr::JmpReg { a: 2 },
        Instr::Halt,
    ];
    println!("malicious packet -> jump: {:?}\n", m.run(&firmware, 100));

    println!("== 2. Compartments: telemetry code cannot read dosage tables ==\n");
    let mut pm = ProtectionMatrix::new();
    let pacing = DomainId(1);
    let telemetry = DomainId(2);
    pm.define_region(RegionId(1), 0, 128).unwrap(); // dosage/pacing params
    pm.define_region(RegionId(2), 128, 512).unwrap(); // radio buffers
    pm.grant(pacing, RegionId(1), Perms::RW);
    pm.grant(telemetry, RegionId(2), Perms::RW);
    println!(
        "telemetry reads pacing params: {:?}\n",
        pm.check(telemetry, 10, AccessKind::Read)
            .err()
            .map(|e| e.to_string())
    );

    println!("== 3. Cache: the shared L1 leaks the patient-key index; partitioned doesn't ==\n");
    let secret = 42;
    let mut shared = Cache::new(cache_cfg()).unwrap();
    let leak = prime_probe_attack(&mut shared, secret);
    let mut part = PartitionedCache::new(cache_cfg(), 2);
    let blind = prime_probe_attack_partitioned(&mut part, secret);
    println!(
        "shared cache:      attacker infers set {} ({} probe misses)",
        leak.inferred_set, leak.signal_misses
    );
    println!(
        "partitioned cache: attacker sees {} probe misses — blind\n",
        blind.signal_misses
    );

    println!("== 4. ECC: a radiation flip in the pacing interval is corrected ==\n");
    let interval_ms: u64 = 857; // pacing interval
    let stored = encode(interval_ms);
    let struck = flip(stored, 23);
    match decode(struck) {
        DecodeResult::Corrected(v, pos) => {
            println!("bit {pos} flipped in storage; corrected value = {v} ms (intact)\n")
        }
        other => println!("unexpected: {other:?}\n"),
    }

    println!("== 5. Failsafe: accumulating faults degrade, never kill, pacing ==\n");
    let mut fsm = FailsafeMachine::new(3, 2, 10);
    let mut log = Vec::new();
    for event in ["ok", "err", "ok", "err", "err", "err", "err"] {
        match event {
            "ok" => fsm.ok(),
            _ => fsm.error(),
        }
        log.push(format!("{event} -> {:?}", fsm.mode()));
    }
    for l in &log {
        println!("  {l}");
    }
    assert_eq!(fsm.mode(), Mode::Safe);
    println!("\nDevice ends in Safe mode: fixed-rate pacing, clinician service required");
    println!("to exit — no automatic re-entry into a faulty mode.");
}
