//! Every scenario file shipped under `scenarios/` must load, validate,
//! and actually generate: a malformed or drifted example would
//! otherwise only fail for the first user who tries it. Each file is
//! parsed through the public loader, streamed for a bounded prefix,
//! and checked for the source contract (dense ids, monotone arrivals,
//! resolvable traces).

use std::path::PathBuf;

use dysta::workload::{load_scenario, parse_scenario, RequestSource, ScenarioError};

fn shipped_scenarios() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("scenarios/ exists at the repository root")
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_shipped_scenario_parses_and_streams() {
    let files = shipped_scenarios();
    assert!(
        files.len() >= 5,
        "expected the five shipped examples, found {files:?}"
    );
    for path in files {
        let spec = load_scenario(&path)
            .unwrap_or_else(|e| panic!("{} failed to load: {e}", path.display()));
        let store = spec.build_store();
        let mut source = spec.source(&store);

        // Stream a bounded prefix (the files describe long runs) and
        // hold the source to its contract.
        let mut prev_arrival = 0u64;
        for expected_id in 0..1000.min(spec.num_requests) {
            let peeked = source.peek_arrival_ns();
            let request = source
                .next_request()
                .unwrap_or_else(|| panic!("{} ran dry early", path.display()));
            assert_eq!(peeked, Some(request.arrival_ns), "{}", path.display());
            assert_eq!(request.id, expected_id, "{}", path.display());
            assert!(request.arrival_ns >= prev_arrival, "{}", path.display());
            prev_arrival = request.arrival_ns;
            // Panics if the spec is missing from the store.
            let trace = source.trace_for(&request);
            assert!(trace.num_layers() > 0, "{}", path.display());
        }
    }
}

#[test]
fn shipped_scenarios_reload_identically() {
    // Loading a file twice must produce the same spec (the loader has
    // no hidden state), and the spec must re-validate after the parse.
    for path in shipped_scenarios() {
        let first = load_scenario(&path).expect("shipped scenario loads");
        let second = load_scenario(&path).expect("shipped scenario loads");
        assert_eq!(
            format!("{first:?}"),
            format!("{second:?}"),
            "{} loads are not identical",
            path.display()
        );
        first.validate().expect("shipped scenario validates");
    }
}

#[test]
fn pathologically_nested_scenario_is_malformed_not_a_crash() {
    // Deep nesting must come back as a parse error; recursing once per
    // level would overflow the stack and abort the whole process.
    let err = parse_scenario(&"[".repeat(100_000)).unwrap_err();
    assert!(
        matches!(&err, ScenarioError::Malformed(msg) if msg.contains("recursion limit")),
        "{err}"
    );
}

#[test]
fn vanishing_rate_scenario_ends_instead_of_overflowing() {
    // A Poisson rate of 1e-300 req/s passes validation, but its first
    // gap (~1e300 s) lies past the end of the nanosecond clock: the
    // source must end the stream, not overflow `now + gap`.
    let spec = parse_scenario(
        r#"{
          "seed": 1,
          "num_requests": 100,
          "samples_per_variant": 2,
          "phases": [
            {
              "start_s": 0.0,
              "mix": "multi-cnn",
              "process": {"model": "poisson", "rate": 1e-300},
              "slo_multiplier": 10.0
            }
          ]
        }"#,
    )
    .expect("a tiny positive rate is accepted input");
    let store = spec.build_store();
    let mut source = spec.source(&store);
    assert_eq!(source.peek_arrival_ns(), None);
    assert_eq!(source.next_request(), None);
}

#[test]
fn parser_never_panics_on_truncated_or_mutated_shipped_files() {
    // Deterministic fuzzing of `parse_scenario` around the shipped
    // files: every byte-prefix, and every single-byte substitution
    // from the characters JSON numbers and structure are made of. A
    // panic (or abort) fails the test; any `Ok` or `Err` passes.
    const ALPHABET: &[u8] = b"0123456789-e.[]{}\",:";
    let mut cases = 0usize;
    for path in shipped_scenarios() {
        let text = std::fs::read_to_string(&path).expect("shipped scenario is readable");
        assert!(text.is_ascii(), "{} is not ASCII", path.display());
        for end in 0..=text.len() {
            let _ = parse_scenario(&text[..end]);
            cases += 1;
        }
        let mut bytes = text.clone().into_bytes();
        for i in 0..bytes.len() {
            let original = bytes[i];
            for &b in ALPHABET.iter().filter(|&&b| b != original) {
                bytes[i] = b;
                let mutated = std::str::from_utf8(&bytes).expect("ASCII stays UTF-8");
                let _ = parse_scenario(mutated);
                cases += 1;
            }
            bytes[i] = original;
        }
    }
    assert!(cases > 10_000, "only {cases} cases ran");
}

#[test]
fn parser_never_panics_on_nesting_around_the_depth_limit() {
    for depth in [127, 128, 129, 100_000] {
        for (open, close) in [("[", "]"), (r#"{"a":"#, "}")] {
            let unclosed = open.repeat(depth);
            let closed = format!("{unclosed}0{}", close.repeat(depth));
            for text in [&unclosed, &closed] {
                assert!(
                    parse_scenario(text).is_err(),
                    "depth {depth} of {open} is not a scenario"
                );
            }
        }
    }
}

/// SplitMix64: a tiny seeded generator, so the fuzz corpora below are
/// the same on every run and every platform.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (modulo bias is irrelevant here).
    fn below(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}

/// JSON's structural and numeric characters plus the letters of its
/// keywords: random strings over these get past the first token.
const JSON_ALPHABET: &[u8] = b"0123456789-+eE.[]{}\",: \ntrufalsn";

#[test]
fn parser_never_panics_on_random_ascii() {
    // Random byte strings of up to 256 characters: half drawn from all
    // of ASCII (control characters included), half from JSON's own
    // alphabet. Any `Ok` or `Err` passes; a panic fails.
    let mut rng = SplitMix(0x5CE7_A210);
    for case in 0..4_000 {
        let len = rng.below(0, 257);
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                if case % 2 == 0 {
                    rng.below(0, 128) as u8
                } else {
                    JSON_ALPHABET[rng.below(0, JSON_ALPHABET.len())]
                }
            })
            .collect();
        let text = std::str::from_utf8(&bytes).expect("ASCII is UTF-8");
        let _ = parse_scenario(text);
    }
}

#[test]
fn parser_never_panics_on_multi_edit_mutations_of_shipped_files() {
    // Each case applies 2–8 edits at once to a shipped file: a byte
    // substitution (any ASCII or a JSON character), a deletion of up
    // to 16 bytes, or a duplication of a span of up to 64 bytes in
    // place. Single-byte edits leave most files one typo from valid;
    // several together reach states no single edit does, such as a
    // duplicated key or phase next to a damaged one.
    let mut rng = SplitMix(0xED17_5000);
    let (mut cases, mut past_syntax) = (0usize, 0usize);
    for path in shipped_scenarios() {
        let text = std::fs::read_to_string(&path).expect("shipped scenario is readable");
        assert!(text.is_ascii(), "{} is not ASCII", path.display());
        for _ in 0..1_000 {
            let mut bytes = text.clone().into_bytes();
            for _ in 0..rng.below(2, 9) {
                if bytes.is_empty() {
                    break;
                }
                let at = rng.below(0, bytes.len());
                match rng.below(0, 3) {
                    0 => {
                        bytes[at] = if rng.below(0, 2) == 0 {
                            rng.below(0, 128) as u8
                        } else {
                            JSON_ALPHABET[rng.below(0, JSON_ALPHABET.len())]
                        };
                    }
                    1 => {
                        let end = (at + rng.below(1, 17)).min(bytes.len());
                        bytes.drain(at..end);
                    }
                    _ => {
                        let end = (at + rng.below(1, 65)).min(bytes.len());
                        let span = bytes[at..end].to_vec();
                        bytes.splice(end..end, span);
                    }
                }
            }
            let mutated = std::str::from_utf8(&bytes).expect("ASCII stays UTF-8");
            // Count the cases that parse, or fail on a missing field or
            // in validation, rather than on syntax or a field's type.
            if !matches!(parse_scenario(mutated), Err(ScenarioError::Malformed(_))) {
                past_syntax += 1;
            }
            cases += 1;
        }
    }
    assert!(cases >= 5_000, "only {cases} cases ran");
    // 87 of the 5 000 do with this seed; a corpus that stops reaching
    // them no longer tests the checks behind the syntax.
    assert!(
        past_syntax >= 50,
        "only {past_syntax} cases got past `Malformed`"
    );
}
