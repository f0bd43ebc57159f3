//! Hostile-input tests of the corpus parsers: `parse_instance` and
//! `parse_golden` must turn every input into `Ok` or `Err`, never a panic.
//!
//! The inputs are every truncation of formatted instances, random byte
//! flips, `nodes` headers up to `u64::MAX` and beyond, parent columns with
//! self-parents, cycles, forward references and out-of-range indices up to
//! `u64::MAX`, weights whose sum or text overflows `u64`, and `golden.tsv`
//! lines with a wrong field count or a non-numeric field.

use oocts_gen::corpus::{format_instance, parse_golden, parse_instance, CorpusError};
use oocts_gen::random_binary_tree;
use proptest::prelude::*;

/// Splitmix64 step: every random choice below derives from one sampled seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, bound: usize) -> usize {
    (next(state) % bound as u64) as usize
}

/// A number that is small, on a type boundary, or past `u64::MAX`.
fn hostile_number(state: &mut u64, small: u64) -> String {
    match next(state) % 8 {
        0 => u64::MAX.to_string(),
        1 => "18446744073709551616".to_string(),
        2 => u32::MAX.to_string(),
        3 => (u64::from(u32::MAX) + 1).to_string(),
        4 => next(state).to_string(),
        5 => format!("-{}", next(state) % 10),
        _ => (next(state) % small.max(1)).to_string(),
    }
}

/// An `oocts-corpus v1` text whose header and node lines are drawn from
/// the hostile cases.
fn hostile_instance(state: &mut u64) -> String {
    let n = below(state, 12);
    let header = if next(state).is_multiple_of(4) {
        hostile_number(state, 16)
    } else {
        n.to_string()
    };
    let mut text = format!("oocts-corpus v1\nname hostile\nnodes {header}\n");
    let root = below(state, n.max(1));
    for i in 0..n {
        let parent = match next(state) % 8 {
            _ if i == root && !next(state).is_multiple_of(4) => "-".to_string(),
            0 => i.to_string(),                         // self-parent
            1 => ((i + 1) % n).to_string(),             // the next node: cycles
            2 => (i + 1 + below(state, n)).to_string(), // forward or out of range
            3 => hostile_number(state, n as u64 + 2),
            4 => "-".to_string(), // a second root
            _ => root.to_string(),
        };
        let weight = match next(state) % 4 {
            0 => hostile_number(state, 100),
            1 => u64::MAX.to_string(),
            _ => (1 + next(state) % 100).to_string(),
        };
        text.push_str(&format!("{parent} {weight}\n"));
    }
    text
}

/// A `golden.tsv` payload of comment, blank, valid and malformed lines.
fn hostile_golden(state: &mut u64) -> String {
    let mut text = String::new();
    for _ in 0..1 + below(state, 6) {
        let line = match next(state) % 6 {
            0 => "# instance\tscheduler\tmemory\tio_volume\tpeak_memory".to_string(),
            1 => String::new(),
            2 => {
                let fields = below(state, 9);
                vec!["1"; fields].join("\t")
            }
            _ => {
                let mut fields = [
                    "inst".to_string(),
                    "RecExpand".to_string(),
                    hostile_number(state, 1000),
                    hostile_number(state, 1000),
                    hostile_number(state, 1000),
                ];
                if next(state).is_multiple_of(3) {
                    let k = 2 + below(state, 3);
                    fields[k] =
                        ["ten", "", " 1", "1.5", "0x10", "\u{00e9}"][below(state, 6)].to_string();
                }
                fields.join("\t")
            }
        };
        text.push_str(&line);
        text.push('\n');
    }
    text
}

/// Flips up to eight random bytes of `text`; invalid UTF-8 is replaced.
fn flip_bytes(text: &str, state: &mut u64) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    for _ in 0..1 + below(state, 8) {
        let at = below(state, bytes.len());
        bytes[at] = match next(state) % 3 {
            0 => b"0123456789- \t\n#"[below(state, 15)],
            _ => bytes[at] ^ (1 << below(state, 8)),
        };
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_truncation_of_an_instance_parses_or_errs(
        n in 1usize..40,
        seed in 0u64..=u64::MAX,
    ) {
        let tree = random_binary_tree(n, 0..=u64::MAX / 2, seed);
        let text = format_instance("truncated", &tree).unwrap();
        // Only a cut inside the last weight's digits (or after them) leaves
        // a complete instance.
        let last_line = text.trim_end().rfind('\n').map_or(0, |i| i + 1);
        let last_weight = last_line + text[last_line..].find(' ').map_or(0, |i| i + 1);
        for end in 0..=text.len() {
            if parse_instance(&text[..end]).is_ok() {
                prop_assert!(end > last_weight, "prefix of {end} bytes parsed");
            }
        }
        prop_assert!(parse_instance(&text).is_ok());
    }

    #[test]
    fn byte_flips_parse_or_err(seed in 0u64..=u64::MAX) {
        let mut state = seed;
        let tree = random_binary_tree(1 + below(&mut state, 30), 1..=100, seed);
        let text = format_instance("flipped", &tree).unwrap();
        for _ in 0..16 {
            let _ = parse_instance(&flip_bytes(&text, &mut state));
            let golden = hostile_golden(&mut state);
            let _ = parse_golden(&flip_bytes(&golden, &mut state));
        }
    }

    #[test]
    fn hostile_instances_parse_or_err(seed in 0u64..=u64::MAX) {
        let mut state = seed;
        for _ in 0..16 {
            let _ = parse_instance(&hostile_instance(&mut state));
        }
    }

    #[test]
    fn hostile_golden_files_parse_or_err(seed in 0u64..=u64::MAX) {
        let mut state = seed;
        for _ in 0..16 {
            let _ = parse_golden(&hostile_golden(&mut state));
        }
    }
}

#[test]
fn node_headers_up_to_u64_max_are_errors() {
    for count in [u64::MAX, u64::MAX - 1, 1 << 40, u64::from(u32::MAX) + 1, 3] {
        let text = format!("oocts-corpus v1\nname big\nnodes {count}\n- 1\n0 1\n");
        assert!(parse_instance(&text).is_err(), "nodes {count}");
    }
    let past = "oocts-corpus v1\nname big\nnodes 18446744073709551616\n- 1\n";
    assert!(parse_instance(past).is_err());
}

#[test]
fn parent_indices_past_u32_are_errors() {
    for parent in [u64::from(u32::MAX), u64::from(u32::MAX) + 1, u64::MAX] {
        let text = format!("oocts-corpus v1\nname far\nnodes 2\n- 1\n{parent} 1\n");
        assert!(
            matches!(
                parse_instance(&text),
                Err(CorpusError::Parse { line: 5, .. })
            ),
            "parent {parent}"
        );
    }
}

#[test]
fn children_weights_summing_past_u64_max_are_errors() {
    let max = u64::MAX;
    let text = format!("oocts-corpus v1\nname heavy\nnodes 3\n- 1\n0 {max}\n0 1\n");
    assert!(matches!(
        parse_instance(&text),
        Err(CorpusError::Parse { line: 6, .. })
    ));
    // One heavy child alone is a valid tree.
    let text = format!("oocts-corpus v1\nname heavy\nnodes 2\n- 1\n0 {max}\n");
    assert!(parse_instance(&text).is_ok());
}
