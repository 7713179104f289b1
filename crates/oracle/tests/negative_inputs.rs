//! Negative-input suite for the IR ingestion path: mutated well-formed
//! modules must produce a structured `ParseError`/`VerifyError` (or, when
//! the mutation happens to stay well-formed, parse cleanly) — **never** a
//! panic. Each panic here would be a process-killing crash for an `epvf`
//! invocation fed a corrupt `.ir` file.
//!
//! The corpus is derived from the property-based `Recipe` generator:
//! every case emits a random valid module, renders it to text, applies a
//! deterministic byte- or line-level mutation, and feeds the result to
//! `parse_module`.

use epvf_ir::hash::Xoshiro256pp;
use epvf_ir::parse_module;
use epvf_oracle::{GenConfig, Recipe};

/// A corpus of valid module texts drawn from the generator.
fn corpus(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Recipe::random(&mut rng, &GenConfig::default())
                .emit()
                .to_string()
        })
        .collect()
}

/// Assert the parser terminates with a `Result` (panics fail the test
/// harness on their own; this wrapper keeps intent explicit and checks
/// that an `Err` carries a non-empty message).
fn must_not_panic(text: &str) {
    if let Err(e) = parse_module(text) {
        assert!(
            !e.to_string().is_empty(),
            "parse error must carry a message"
        );
    }
}

#[test]
fn pristine_corpus_round_trips() {
    for text in corpus(0xA11CE, 16) {
        let m = parse_module(&text).expect("generator output parses");
        assert_eq!(m.to_string(), text, "round trip is stable");
    }
}

#[test]
fn truncation_at_every_line_is_structured() {
    for text in corpus(1, 8) {
        let lines: Vec<&str> = text.lines().collect();
        for cut in 0..lines.len() {
            must_not_panic(&lines[..cut].join("\n"));
        }
    }
}

#[test]
fn truncation_at_byte_offsets_is_structured() {
    for text in corpus(2, 8) {
        let mut rng = Xoshiro256pp::seed_from_u64(text.len() as u64);
        for _ in 0..32 {
            // Cut at a char boundary (the texts are ASCII, but stay safe).
            let mut cut = rng.below(text.len().max(1) as u64) as usize;
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            must_not_panic(&text[..cut]);
        }
    }
}

#[test]
fn single_byte_corruption_is_structured() {
    // Replace one byte with a printable or pathological substitute at
    // many positions; covers digit mangling, delimiter loss, sign flips.
    let substitutes = [b'(', b')', b'@', b'%', b'"', b'-', b'9', b'x', b' ', 0xC3];
    for text in corpus(3, 6) {
        let bytes = text.as_bytes();
        let mut rng = Xoshiro256pp::seed_from_u64(bytes.len() as u64);
        for _ in 0..64 {
            let pos = rng.below(bytes.len().max(1) as u64) as usize;
            let sub = substitutes[rng.below(substitutes.len() as u64) as usize];
            let mut mutated = bytes.to_vec();
            mutated[pos.min(bytes.len() - 1)] = sub;
            // 0xC3 makes the text invalid-or-multibyte UTF-8; the parser
            // only sees &str, so lossy-decode as a real caller would.
            let mutated = String::from_utf8_lossy(&mutated);
            must_not_panic(&mutated);
        }
    }
}

#[test]
fn line_level_mutations_are_structured() {
    for (case, text) in corpus(4, 6).into_iter().enumerate() {
        let lines: Vec<&str> = text.lines().collect();
        let mut rng = Xoshiro256pp::seed_from_u64(case as u64);
        for _ in 0..24 {
            let mut mutated: Vec<&str> = lines.clone();
            let i = rng.below(lines.len().max(1) as u64) as usize;
            match rng.below(4) {
                // Delete a line (drops terminators, labels, braces).
                0 => {
                    mutated.remove(i);
                }
                // Duplicate a line (redefined registers, double braces).
                1 => mutated.insert(i, lines[i]),
                // Swap two lines (out-of-order definitions).
                2 => {
                    let j = rng.below(lines.len() as u64) as usize;
                    mutated.swap(i, j);
                }
                // Splice in garbage.
                _ => mutated.insert(i, "  %r9999 = frob i32 %missing, ("),
            }
            must_not_panic(&mutated.join("\n"));
        }
    }
}

#[test]
fn adversarial_handwritten_inputs_are_structured() {
    // Regression corpus for specific historic panic sites plus generic
    // nastiness: inverted parens, multi-byte chars in offset-sliced
    // positions, unterminated quotes, absurd sizes.
    let cases = [
        "",
        "\n\n\n",
        "define",
        "define void {",
        "define void @m)x( {",
        "define i32 )@m( {",
        "global @g 4 4 init \"ααββ\"",
        "global @g 4 4 init \"abc\"",
        "global @g 4 4 init \"zz\"",
        "global @g 4 4 init \"ab",
        "define void @main() {\nbb0:\n  call @f0)x(\n  ret\n}",
        "define void @main() {\nbb0:\n  ret\n}\n}",
        "define void @main() {\nbb0:\n  %r0 = add i32 1,\n  ret\n}",
        "define void @main() {\nbb0:\n  br bb99999999999999999999\n  ret\n}",
        "define void @main(i32 i32 i32",
        "\u{FEFF}define void @main() {\nbb0:\n  ret\n}",
        "define void @main() {\nbb0:\n  output i32 \"unterminated\n  ret\n}",
    ];
    for text in cases {
        must_not_panic(text);
    }
}
