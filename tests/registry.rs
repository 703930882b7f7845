//! Registry lifecycle: many patterns on one shared worker pool,
//! eviction under table-byte pressure, and artifact-loaded entries that
//! behave exactly like freshly constructed ones.

use std::sync::Arc;

use ridfa::automata::nfa::glushkov;
use ridfa::automata::regex;
use ridfa::core::csdpa::{
    Kernel, PatternRegistry, RegistryConfig, RegistryError, RidCa, Session, StreamScan,
};
use ridfa::core::ridfa::{ridfa_to_bytes, RiDfa};
use ridfa::faults::XorShift64;

fn registry(workers: usize) -> PatternRegistry {
    let mut reg = PatternRegistry::new(RegistryConfig {
        num_workers: workers,
        block_size: 512,
        ..RegistryConfig::default()
    });
    reg.insert_regex("abb", "(a|b)*abb").unwrap();
    reg.insert_regex("digits", "[0-9]+").unwrap();
    reg.insert_regex("word", "[a-z]+(-[a-z]+)*").unwrap();
    reg.insert_regex("mask", "[ab]*a[ab]{4}").unwrap();
    reg
}

/// Interleaved recognitions across four patterns share one pool: the
/// pool never grows, verdicts stay correct, per-pattern stats add up.
#[test]
fn four_patterns_one_pool_interleaved() {
    let mut reg = registry(3);
    let cases: &[(&str, &[u8], bool)] = &[
        ("abb", b"bababb", true),
        ("abb", b"ba", false),
        ("digits", b"0123456789", true),
        ("digits", b"12a34", false),
        ("word", b"alpha-beta-gamma", true),
        ("word", b"alpha--beta", false),
        ("mask", b"bbbaabab", true),
        ("mask", b"bbb", false),
    ];
    let mut rng = XorShift64::new(0x5eed);
    for round in 0..100 {
        let (id, text, expect) = cases[(rng.next_u64() % cases.len() as u64) as usize];
        let chunks = 1 + (round % 5);
        let out = reg.recognize(id, text, chunks).unwrap();
        assert_eq!(out.accepted, expect, "{id} on {text:?} in {chunks} chunks");
    }
    let health = reg.health();
    assert_eq!(
        health.configured, 3,
        "pool width must not grow with patterns"
    );
    assert_eq!(health.live, 3);
    let total: u64 = ["abb", "digits", "word", "mask"]
        .iter()
        .map(|id| reg.stats(id).unwrap().requests)
        .sum();
    assert_eq!(total, 100);
}

/// The shared pool serves sessions on several *threads* concurrently:
/// each thread attaches its own warm session to the registry's pool and
/// recognizes its own pattern — callers serialize on the pool's scope
/// slot, verdicts stay exact, and no thread wedges.
#[test]
fn shared_pool_recognitions_from_multiple_threads() {
    let reg = registry(2);
    let pool = reg.shared_pool();
    let patterns = ["(a|b)*abb", "[0-9]+", "[a-z]+(-[a-z]+)*"];
    let texts: [(&[u8], bool); 3] = [
        (b"bababb", true),
        (b"0123456789", true),
        (b"alpha--beta", false),
    ];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, pattern) in patterns.iter().enumerate() {
            let pool = Arc::clone(&pool);
            let (text, expect) = texts[i];
            handles.push(scope.spawn(move || {
                let ast = regex::parse(pattern).unwrap();
                let rid = RiDfa::from_nfa(&glushkov::build(&ast).unwrap()).minimized();
                let ca = RidCa::new(&rid).with_kernel(Kernel::Auto);
                let mut session = Session::with_shared_pool(pool);
                for _ in 0..50 {
                    let out = session.recognize(&ca, text, 4);
                    assert_eq!(out.accepted, expect, "{pattern} on {text:?}");
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
    });
    assert_eq!(reg.health().live, 2, "workers survived the contention");
}

/// Byte pressure evicts least-recently-used patterns; the survivors and
/// the shared pool keep working, and the books balance.
#[test]
fn eviction_keeps_registry_consistent() {
    let mut reg = PatternRegistry::new(RegistryConfig {
        num_workers: 2,
        max_table_bytes: 48 * 1024,
        ..RegistryConfig::default()
    });
    reg.insert_regex("hot", "(a|b)*abb").unwrap();
    let mut inserted = vec!["hot".to_string()];
    let mut k = 0;
    // Keep "hot" warm while inserting until pressure evicts something.
    while reg.evictions() == 0 && k < 64 {
        assert!(reg.recognize("hot", b"bababb", 2).unwrap().accepted);
        let id = format!("cold{k}");
        reg.insert_regex(&id, "[ab]*a[ab]{5}").unwrap();
        inserted.push(id);
        k += 1;
    }
    assert!(reg.evictions() > 0, "byte pressure never evicted");
    assert!(
        reg.resident_bytes() <= 48 * 1024,
        "cap exceeded after eviction"
    );
    assert!(
        reg.contains("hot"),
        "the constantly-touched pattern must not be the LRU victim"
    );
    // Evicted ids answer UnknownPattern, not stale results; survivors
    // still recognize.
    let mut evicted = 0;
    for id in &inserted {
        if reg.contains(id) {
            let expected = id == "hot";
            let out = reg.recognize(id, b"bababb", 2).unwrap();
            assert_eq!(out.accepted, expected, "{id}");
        } else {
            evicted += 1;
            assert!(matches!(
                reg.recognize(id, b"x", 1),
                Err(RegistryError::UnknownPattern(_))
            ));
        }
    }
    assert_eq!(evicted as u64, reg.evictions());
    // Re-inserting an evicted pattern works (possibly evicting again).
    reg.insert_regex("cold0-again", "[ab]*a[ab]{5}").unwrap();
    assert!(reg.recognize("cold0-again", b"ababab", 2).unwrap().accepted);
}

/// An artifact-loaded entry and a fresh-construction entry are
/// indistinguishable: same verdicts batch, streaming and incremental,
/// on the same inputs.
#[test]
fn artifact_and_fresh_entries_are_equivalent() {
    let ast = regex::parse("[ab]*a[ab]{4}").unwrap();
    let nfa = glushkov::build(&ast).unwrap();
    let rid = RiDfa::from_nfa(&nfa).minimized();
    let bytes = ridfa_to_bytes(&rid);

    let mut reg = PatternRegistry::new(RegistryConfig {
        num_workers: 2,
        ..RegistryConfig::default()
    });
    reg.insert_nfa("fresh", &nfa).unwrap();
    reg.insert_artifact("cold", &bytes).unwrap();
    assert_eq!(reg.num_states("fresh"), reg.num_states("cold"));

    let mut rng = XorShift64::new(0xc01d);
    for round in 0..200 {
        let n = (rng.next_u64() % 40) as usize;
        let mut text: Vec<u8> = (0..n)
            .map(|_| b"ab"[(rng.next_u64() % 2) as usize])
            .collect();
        if round % 2 == 0 {
            text.push(b'a');
            text.extend((0..4).map(|_| b"ab"[(rng.next_u64() % 2) as usize]));
        }
        let fresh = reg.recognize("fresh", &text, 3).unwrap().accepted;
        let cold = reg.recognize("cold", &text, 3).unwrap().accepted;
        assert_eq!(fresh, cold, "batch divergence on {text:?}");

        let fresh_stream = reg
            .recognize_stream("fresh", std::io::Cursor::new(text.clone()))
            .unwrap()
            .accepted;
        assert_eq!(fresh, fresh_stream, "stream divergence on {text:?}");

        let mut scan = StreamScan::new();
        for block in text.chunks(7) {
            reg.scan_block("cold", &mut scan, block).unwrap();
        }
        let incremental = reg.finish_scan("cold", &mut scan).unwrap();
        assert_eq!(fresh, incremental, "incremental divergence on {text:?}");
    }
}

/// The pooled big-body scan is verdict- and byte-count-equivalent to the
/// serial incremental scan on the same block sequence — λ-composition is
/// associative, so splitting a block across the pool must not change
/// anything observable.
#[test]
fn pooled_scan_blocks_match_serial_scan_blocks() {
    let mut reg = registry(3);
    let mut rng = XorShift64::new(0xb10c);
    for round in 0..40 {
        let id = ["abb", "digits", "word", "mask"][round % 4];
        let alphabet: &[u8] = match id {
            "digits" => b"0123456789x",
            "word" => b"abc-",
            _ => b"ab",
        };
        let n = 200 + (rng.next_u64() % 4000) as usize;
        let text: Vec<u8> = (0..n)
            .map(|_| alphabet[(rng.next_u64() % alphabet.len() as u64) as usize])
            .collect();

        let mut serial = StreamScan::new();
        for block in text.chunks(777) {
            reg.scan_block(id, &mut serial, block).unwrap();
        }
        let serial_bytes = serial.bytes();
        let serial_verdict = reg.finish_scan(id, &mut serial).unwrap();

        let mut pooled = StreamScan::new();
        for block in text.chunks(777) {
            reg.scan_block_pooled(id, &mut pooled, block).unwrap();
        }
        assert_eq!(pooled.bytes(), serial_bytes, "{id} round {round}");
        let pooled_verdict = reg.finish_scan(id, &mut pooled).unwrap();
        assert_eq!(pooled_verdict, serial_verdict, "{id} round {round}");
    }
}

/// Re-inserting a pattern bumps its epoch: scans started against the old
/// automaton fail typed (`PatternReloaded`) instead of mixing verdicts
/// across generations — on the serial path, the pooled path, and at
/// finish. A reset scan binds to the new epoch and works.
#[test]
fn reload_mid_scan_is_a_typed_error_never_a_stale_verdict() {
    let mut reg = registry(2);
    let mut scan = StreamScan::new();
    reg.scan_block("digits", &mut scan, b"123").unwrap();
    let mut pooled = StreamScan::new();
    reg.scan_block_pooled("digits", &mut pooled, b"456")
        .unwrap();

    // Hot reload: same id, different automaton, fresh epoch (a resident
    // id must be removed first — re-insertion is what bumps the epoch).
    assert!(reg.remove("digits"));
    reg.insert_regex("digits", "[0-9]{5}").unwrap();

    assert!(matches!(
        reg.scan_block("digits", &mut scan, b"45"),
        Err(RegistryError::PatternReloaded { ref id }) if id == "digits"
    ));
    assert!(matches!(
        reg.scan_block_pooled("digits", &mut pooled, b"78"),
        Err(RegistryError::PatternReloaded { ref id }) if id == "digits"
    ));
    assert!(matches!(
        reg.finish_scan("digits", &mut scan),
        Err(RegistryError::PatternReloaded { ref id }) if id == "digits"
    ));

    // finish_scan resets the stale scan; the next stream binds to the
    // new epoch and gets the new pattern's verdict.
    reg.scan_block("digits", &mut scan, b"123").unwrap();
    assert!(!reg.finish_scan("digits", &mut scan).unwrap());
    reg.scan_block("digits", &mut scan, b"12345").unwrap();
    assert!(reg.finish_scan("digits", &mut scan).unwrap());
}
