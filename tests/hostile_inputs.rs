//! Deterministic mutation-fuzz harness for the scanning stack.
//!
//! Thousands of seeded mutants (byte flips, truncations, splices) of
//! builder-generated `.doc`/`.docm`/`vbaProject.bin` files are pushed
//! through the batch scan engine. The invariant under test is the
//! robustness contract of ISSUE scope: *no input may panic, hang, or abort
//! the batch* — every mutant must come back as a typed [`ScanOutcome`].
//!
//! The harness is deterministic (fixed seeds, no wall-clock input), so a
//! regression reproduces exactly.

mod mutants;

use mutants::{flip_bytes, raw_project_mutants, splice, truncate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbadet::{scan_bytes_with_policy, Budget, FailureClass, ScanLimits, ScanOutcome, ScanPolicy};
use vbadet_corpus::{generate_macros, CorpusSpec, DocumentFactory};
use vbadet_ovba::{salvage_modules_from_bytes_budgeted, VbaProjectBuilder};
use vbadet_repro::testkit::{fresh_dir, tiny_detector};

const MIN_MUTANTS: usize = 1000;

/// Builder-generated seed documents: real `.doc`/`.docm`/`.xls`/`.xlsm`
/// containers from the corpus factory plus a bare `vbaProject.bin`.
fn base_documents() -> Vec<Vec<u8>> {
    let spec = CorpusSpec::paper().scaled(0.01).with_seed(0xF0AA);
    let macros = generate_macros(&spec);
    let factory = DocumentFactory::new(&spec, &macros);
    let mut docs: Vec<Vec<u8>> = factory
        .build_all()
        .into_iter()
        .map(|f| f.bytes)
        .take(11)
        .collect();
    let mut b = VbaProjectBuilder::new("Seed");
    b.add_module(
        "Module1",
        "Sub Document_Open()\r\n    Call Shell(\"cmd\", 1)\r\nEnd Sub\r\n",
    );
    docs.push(b.build().unwrap());
    assert!(docs.len() >= 4, "corpus draw too small to fuzz");
    docs
}

#[test]
fn thousand_mutants_never_panic_the_scan_engine() {
    let detector = tiny_detector();
    let bases = base_documents();
    let policy = ScanPolicy::with_limits(ScanLimits::strict());

    let per_round = bases.len() * 3;
    let rounds = MIN_MUTANTS / per_round + 1;
    let mut scanned = 0usize;
    let mut panics = Vec::new();
    let mut histogram = std::collections::BTreeMap::new();

    for round in 0..rounds {
        for (bi, base) in bases.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0x5EED_0000 + (round * 1000 + bi) as u64);
            let donor = &bases[(bi + 1) % bases.len()];
            for mutant in [
                flip_bytes(base, &mut rng),
                truncate(base, &mut rng),
                splice(base, donor, &mut rng),
            ] {
                let outcome = scan_bytes_with_policy(detector, &mutant, &policy);
                scanned += 1;
                let key = match &outcome {
                    ScanOutcome::Clean => "clean",
                    ScanOutcome::Macros(_) => "macros",
                    ScanOutcome::Salvaged(_) => "salvaged",
                    // Only replayed from old journals; no scan produces it.
                    ScanOutcome::Recovered { .. } => "recovered",
                    ScanOutcome::Failed { class, .. } => class.label(),
                };
                *histogram.entry(key).or_insert(0usize) += 1;
                if let ScanOutcome::Failed {
                    class: FailureClass::Panic,
                    detail,
                } = outcome
                {
                    panics.push((round, bi, detail));
                }
            }
        }
    }

    assert!(scanned >= MIN_MUTANTS, "only {scanned} mutants scanned");
    assert!(
        panics.is_empty(),
        "{} of {scanned} mutants panicked the parser stack: {:?}",
        panics.len(),
        &panics[..panics.len().min(5)]
    );
    // The harness must actually exercise hostile paths, not just reject
    // everything at the signature sniff.
    let failures: usize = histogram
        .iter()
        .filter(|(k, _)| !matches!(**k, "clean" | "macros" | "salvaged"))
        .map(|(_, v)| v)
        .sum();
    assert!(
        failures > 0,
        "no mutant produced a failure outcome: {histogram:?}"
    );
    eprintln!("mutant outcome histogram over {scanned} inputs: {histogram:?}");
}

#[test]
fn mutants_of_the_raw_project_bin_never_break_extraction() {
    // Direct extraction-level fuzz (below the scan engine) under strict
    // limits: the extractor must return Ok/Err, never unwind. And a broken
    // structure is only an `Err` when the raw bytes hold no module either:
    // there is one salvage path, so no second sweep can find more.
    let limits = ScanLimits::strict();
    for (k, mutant) in raw_project_mutants().iter().enumerate() {
        let result = std::panic::catch_unwind(|| {
            vbadet::extract_macros_bounded(mutant, &limits, &Budget::unlimited())
        });
        let Ok(result) = result else {
            panic!("extraction panicked on mutant {k} of len {}", mutant.len());
        };
        let Err(e) = result else { continue };
        if matches!(
            FailureClass::from_error(&e),
            FailureClass::Malformed | FailureClass::Truncated
        ) {
            let swept =
                salvage_modules_from_bytes_budgeted(mutant, "", &limits.ovba, &Budget::unlimited())
                    .unwrap();
            assert!(
                swept.is_empty(),
                "mutant {k} fails ({e}) but a raw-bytes sweep finds {} module(s)",
                swept.len()
            );
        }
    }
}

/// The `raw 133` line of `tests/fixtures/containers.txt`: a splice
/// clobbered the start sector and size in the compound file's directory,
/// so the `Module1` stream no longer opens and no stream that does open
/// holds an intact module. The module's compressed source still sits in
/// the buffer, so the extractor's raw-bytes sweep recovers it, with no
/// policy switch.
#[test]
fn raw_project_mutant_133_is_salvaged_by_the_raw_bytes_sweep() {
    let mutant = &raw_project_mutants()[133];
    let extracted = vbadet::extract_macros(mutant).expect("extract_macros salvages");
    assert_eq!(extracted.len(), 1);
    assert_eq!(extracted[0].module_name, "salvaged_1");
    assert!(extracted[0].code.contains("Chr(65) & Chr(66)"));
    match scan_bytes_with_policy(tiny_detector(), mutant, &ScanPolicy::default()) {
        ScanOutcome::Salvaged(verdicts) => {
            assert_eq!(verdicts.len(), 1);
            assert_eq!(verdicts[0].module_name, "salvaged_1");
        }
        other => panic!("expected Salvaged, got {other:?}"),
    }
}

/// The isolate frame codec under the same mutation discipline: torn,
/// truncated, oversized and garbage frames must all come back as typed
/// `io::Error`s — never a panic, never an unchecked allocation from a
/// hostile length prefix. The mutants start from a JSON frame and from a
/// `bytes` request frame, which carries a whole document.
#[test]
fn mutated_isolate_frames_fail_typed_and_never_panic() {
    use vbadet::scan::isolate::write_frame;

    let mut json_frame = Vec::new();
    write_frame(
        &mut json_frame,
        "{\"type\":\"scan\",\"path\":\"/tmp/x.doc\"}",
    )
    .unwrap();
    let mut b = VbaProjectBuilder::new("P");
    b.add_module("Module1", "Sub Work()\r\n    x = 1\r\nEnd Sub\r\n");
    let mut bytes_frame = Vec::new();
    write_frame(
        &mut bytes_frame,
        [&[0x03][..], &b.build().unwrap()].concat(),
    )
    .unwrap();

    for well_formed in [json_frame, bytes_frame] {
        mutate_frames(&well_formed);
    }
}

/// Reads 600 seeded mutants of `well_formed` and checks each is a frame,
/// a clean EOF or a typed error.
fn mutate_frames(well_formed: &[u8]) {
    use vbadet::scan::isolate::{read_frame, MAX_FRAME_BYTES};

    let mut rng = StdRng::seed_from_u64(0xF4A3E5);
    let mut decoded = 0usize;
    let mut rejected = 0usize;
    for case in 0..600 {
        let mutant: Vec<u8> = match case % 5 {
            // Torn: a clean frame cut mid-payload (or mid-prefix).
            0 => truncate(well_formed, &mut rng),
            // Bit-flipped prefix and/or payload.
            1 => flip_bytes(well_formed, &mut rng),
            // A length prefix far past the cap with no payload behind it:
            // must be rejected *before* any allocation that size.
            2 => {
                let len = rng.gen_range(MAX_FRAME_BYTES as u64 + 1..=u32::MAX as u64) as u32;
                len.to_le_bytes().to_vec()
            }
            // An honest prefix promising more bytes than follow.
            3 => {
                let mut out = (64u32).to_le_bytes().to_vec();
                out.extend_from_slice(&vec![b'x'; rng.gen_range(0..64usize)]);
                out
            }
            // Pure garbage.
            _ => (0..rng.gen_range(0..64usize)).map(|_| rng.gen()).collect(),
        };
        let result = std::panic::catch_unwind(|| read_frame(&mut mutant.as_slice()));
        let result = result.unwrap_or_else(|_| panic!("frame codec panicked on case {case}"));
        match result {
            Ok(Some(_)) => decoded += 1,
            // Clean EOF before the prefix is the codec's "peer finished".
            Ok(None) => {}
            Err(e) => {
                rejected += 1;
                assert!(!e.to_string().is_empty(), "typed error must carry detail");
            }
        }
    }
    assert!(rejected > 0, "no mutant exercised a typed rejection");
    // Flipping payload bytes of a valid frame can legitimately still
    // decode (JSON-ness is the layer above); what matters is zero panics.
    eprintln!("frame mutants: {decoded} decoded, {rejected} typed rejections");
}

/// The service wire-protocol parser: seeded mutants of valid request
/// lines (flips, truncations, splices, raw garbage — including invalid
/// UTF-8 lossily decoded, exactly as the connection reader does) must
/// parse or fail typed, never panic.
#[test]
fn mutated_service_requests_never_panic_the_protocol_parser() {
    use vbadet::serve::parse_request;

    let seeds: Vec<Vec<u8>> = [
        "scan /tmp/a.doc",
        "metrics",
        "health",
        "ready",
        "{\"op\":\"scan\",\"path\":\"/tmp/a.doc\",\"id\":\"r-1\"}",
        "{\"op\":\"scan\",\"bytes_hex\":\"d0cf11e0a1b11ae1\",\"id\":42}",
        "{\"op\":\"metrics\"}",
    ]
    .into_iter()
    .map(|s| s.as_bytes().to_vec())
    .collect();

    let mut rng = StdRng::seed_from_u64(0x5E21E5);
    let mut parsed = 0usize;
    let mut typed = 0usize;
    for round in 0..200 {
        for (si, seed) in seeds.iter().enumerate() {
            let donor = &seeds[(si + 1) % seeds.len()];
            let mutant: Vec<u8> = match round % 4 {
                0 => flip_bytes(seed, &mut rng),
                1 => truncate(seed, &mut rng),
                2 => splice(seed, donor, &mut rng),
                _ => (0..rng.gen_range(0..80usize)).map(|_| rng.gen()).collect(),
            };
            // The connection reader hands the parser lossily-decoded
            // text; mirror that here so invalid UTF-8 is covered too.
            let line = String::from_utf8_lossy(&mutant);
            let result = std::panic::catch_unwind(|| parse_request(&line));
            match result {
                Ok(Ok(_)) => parsed += 1,
                Ok(Err(detail)) => {
                    typed += 1;
                    assert!(!detail.is_empty(), "typed rejection must carry detail");
                }
                Err(_) => panic!("parser panicked on {line:?}"),
            }
        }
    }
    assert!(typed > 0, "no mutant exercised a typed rejection");
    eprintln!("request mutants: {parsed} parsed, {typed} typed rejections");
}

/// The on-disk scan-cache store under the same mutation discipline: torn
/// tails, bit-flipped digests and checksums, truncated segments, spliced
/// lines and oversized entries. Every mutant store must load with typed
/// warnings — zero panics, zero `Err`s — and whatever survives must be a
/// subset of what was written. A corrupted store may forget verdicts; it
/// must never invent or alter one.
///
/// One extra mutant appends a bracket bomb: a 400 KB entry line nested
/// far past the JSON codec's depth cap, which a recursing parser would
/// need tens of megabytes of stack for. The whole fuzz runs on a thread
/// with an explicit 2 MiB stack, so a larger `RUST_MIN_STACK` cannot hide
/// a recursion.
#[test]
fn mutated_cache_stores_load_typed_and_never_serve_an_altered_verdict() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(fuzz_cache_store)
        .unwrap()
        .join()
        .unwrap();
}

fn fuzz_cache_store() {
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use vbadet::{scan_paths_with_policy, ScanCache, ScanPolicy};

    let detector = tiny_detector();
    let dir = fresh_dir("cachefuzz");

    // A pristine store built by a real scan over builder-generated
    // documents (dropping the policy drops the cache and syncs the
    // segment to disk).
    let paths: Vec<_> = base_documents()
        .into_iter()
        .enumerate()
        .map(|(i, bytes)| {
            let p = dir.join(format!("doc{i}.bin"));
            std::fs::write(&p, bytes).unwrap();
            p
        })
        .collect();
    let store = dir.join("store");
    {
        let cache = ScanCache::persistent(&store, 1024).unwrap();
        let policy = ScanPolicy::default().with_cache(Arc::new(cache));
        scan_paths_with_policy(detector, &paths, &policy);
    }
    let segment = {
        let mut segments: Vec<_> = std::fs::read_dir(&store)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        segments.sort();
        assert_eq!(segments.len(), 1, "expected one segment: {segments:?}");
        segments.remove(0)
    };
    let pristine = std::fs::read(&segment).unwrap();
    let baseline: BTreeMap<String, ScanOutcome> = {
        let cache = ScanCache::persistent(&store, 1024).unwrap();
        assert!(cache.load_warnings().is_empty());
        cache.entries().into_iter().collect()
    };
    assert!(baseline.len() >= 4, "store too small to fuzz meaningfully");

    // One entry line far past the per-line cap: the loader must reject it
    // by length — typed warning, never a cap-sized parse.
    let oversized = {
        let mut line = vec![b'a'; (1 << 20) + 64];
        line.push(b'\n');
        line
    };

    // A pristine store with a bracket bomb appended, under the line cap.
    const BOMB_CASE: usize = 300;
    let bomb = {
        let depth = 200_000;
        let mut out = pristine.clone();
        out.extend_from_slice(b"{\"digest\":");
        out.extend(std::iter::repeat_n(b'[', depth));
        out.extend(std::iter::repeat_n(b']', depth));
        out.extend_from_slice(b"}\n");
        out
    };

    let scratch = dir.join("scratch");
    let mut rng = StdRng::seed_from_u64(0xCAC4E5EED);
    let mut damaged_loads = 0usize;
    let mut entries_lost = 0usize;
    for case in 0..=BOMB_CASE {
        let mutant: Vec<u8> = if case == BOMB_CASE {
            bomb.clone()
        } else {
            match case % 5 {
                // Bit flips anywhere: header, digest hex, checksum, payload.
                0 => flip_bytes(&pristine, &mut rng),
                // Torn tail / truncated segment (including mid-header).
                1 => truncate(&pristine, &mut rng),
                // Lines spliced over each other.
                2 => splice(&pristine, &pristine, &mut rng),
                // A pristine store with an oversized entry appended.
                3 => {
                    let mut out = pristine.clone();
                    out.extend_from_slice(&oversized);
                    out
                }
                // Pure garbage the length of a small segment.
                _ => (0..rng.gen_range(1..4096usize))
                    .map(|_| rng.gen())
                    .collect(),
            }
        };
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).unwrap();
        std::fs::write(scratch.join(segment.file_name().unwrap()), &mutant).unwrap();

        let loaded = std::panic::catch_unwind(|| ScanCache::persistent(&scratch, 1024))
            .unwrap_or_else(|_| panic!("loading mutant store {case} panicked"));
        let cache = loaded.unwrap_or_else(|e| {
            panic!("mutant store {case} must load with warnings, got Err: {e}")
        });
        for (digest, outcome) in cache.entries() {
            match baseline.get(&digest) {
                Some(original) => assert_eq!(
                    &outcome, original,
                    "mutant store {case} altered the verdict for {digest}"
                ),
                None => panic!("mutant store {case} invented an entry for {digest}"),
            }
        }
        if case == BOMB_CASE {
            // The bomb line is one damaged entry: a typed warning, and
            // every pristine entry before it still loads.
            assert!(
                cache
                    .load_warnings()
                    .iter()
                    .any(|w| w.contains("nesting deeper than")),
                "{:?}",
                cache.load_warnings()
            );
            assert_eq!(cache.len(), baseline.len());
        }
        if !cache.load_warnings().is_empty() {
            damaged_loads += 1;
        }
        if cache.len() < baseline.len() {
            entries_lost += 1;
        }
    }
    // The harness must actually exercise the damage paths, not just
    // reload pristine bytes 300 times.
    assert!(damaged_loads > 0, "no mutant produced a load warning");
    assert!(entries_lost > 0, "no mutant ever dropped an entry");
    eprintln!("cache-store mutants: {damaged_loads} loads warned, {entries_lost} lost entries");

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Typed-outcome fixtures: one hand-built hostile input per outcome class.
// ---------------------------------------------------------------------------

/// A stomped `dir` stream must fail strict parsing but still yield the
/// module source through salvage, tagged as such — and the library
/// extractor and `Detector::scan_document` must recover the same module
/// as the scan engine.
#[test]
fn fixture_stomped_dir_stream_is_salvaged() {
    let detector = tiny_detector();
    let code = "Attribute VB_Name = \"Module1\"\r\nSub Payload()\r\n    y = 2\r\nEnd Sub\r\n";
    let mut b = VbaProjectBuilder::new("P");
    b.add_module("Module1", code);
    let bin = b.build().unwrap();

    let parsed = vbadet_ole::OleFile::parse(&bin).unwrap();
    let mut rebuilt = vbadet_ole::OleBuilder::new();
    for path in parsed.stream_paths().unwrap() {
        let data = parsed.open_stream(&path).unwrap();
        if path == "VBA/dir" {
            rebuilt.add_stream(&path, &vec![0xFF; data.len()]).unwrap();
        } else {
            rebuilt.add_stream(&path, &data).unwrap();
        }
    }
    let stomped = rebuilt.build();
    let outcome = scan_bytes_with_policy(detector, &stomped, &ScanPolicy::default());
    let scanned = match outcome {
        ScanOutcome::Salvaged(verdicts) => {
            assert_eq!(verdicts.len(), 1);
            assert!(verdicts[0].module_name.starts_with("salvaged_"));
            verdicts
        }
        other => panic!("expected Salvaged, got {other:?}"),
    };

    let extracted = vbadet::extract_macros(&stomped).expect("extract_macros salvages");
    assert_eq!(extracted.len(), 1);
    assert_eq!(extracted[0].module_name, scanned[0].module_name);
    assert_eq!(extracted[0].code, code);
    let verdicts = detector
        .scan_document(&stomped)
        .expect("scan_document salvages");
    assert_eq!(verdicts, scanned);
}

/// A module whose decompressed source exceeds the configured cap must be
/// reported as a limit breach, not silently truncated or salvaged.
#[test]
fn fixture_decompression_bomb_trips_limit_exceeded() {
    let detector = tiny_detector();
    let mut code = String::from("Sub Bomb()\r\n");
    for _ in 0..2000 {
        code.push_str("    s = s & \"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA\"\r\n");
    }
    code.push_str("End Sub\r\n");
    let mut b = VbaProjectBuilder::new("P");
    b.add_module("Module1", &code);
    let bin = b.build().unwrap();

    let mut limits = ScanLimits::default();
    limits.ovba.max_module_bytes = 4096; // far below the ~100 KiB source
    match scan_bytes_with_policy(detector, &bin, &ScanPolicy::with_limits(limits)) {
        ScanOutcome::Failed {
            class: FailureClass::LimitExceeded,
            ..
        } => {}
        other => panic!("expected LimitExceeded failure, got {other:?}"),
    }
    // The same document under default limits parses fine.
    assert!(matches!(
        scan_bytes_with_policy(detector, &bin, &ScanPolicy::default()),
        ScanOutcome::Macros(_)
    ));
}

/// A compound file whose directory chain self-loops must come back as a
/// cyclic-chain failure, not an infinite walk.
#[test]
fn fixture_self_looping_fat_chain_is_reported_as_cycle() {
    let detector = tiny_detector();
    let mut b = VbaProjectBuilder::new("P");
    b.add_module("Module1", "Sub A()\r\n    x = 1\r\nEnd Sub\r\n");
    let mut bytes = b.build().unwrap();

    let first_dir = u32::from_le_bytes(bytes[48..52].try_into().unwrap());
    let first_fat = u32::from_le_bytes(bytes[76..80].try_into().unwrap());
    // Patch the FAT so the first directory sector chains to itself.
    let fat_off = 512 + first_fat as usize * 512 + 4 * first_dir as usize;
    bytes[fat_off..fat_off + 4].copy_from_slice(&first_dir.to_le_bytes());

    assert!(matches!(
        vbadet_ole::OleFile::parse(&bytes),
        Err(vbadet_ole::OleError::ChainCycle { .. })
    ));
    match scan_bytes_with_policy(detector, &bytes, &ScanPolicy::default()) {
        ScanOutcome::Failed {
            class: FailureClass::CyclicChain,
            ..
        } => {}
        other => panic!("expected CyclicChain failure, got {other:?}"),
    }
}
