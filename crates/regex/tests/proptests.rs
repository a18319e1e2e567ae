//! Property-based tests for the regex engine.
//!
//! The key oracle is a naive backtracking matcher implemented directly over
//! the AST: for every generated pattern/input pair, the production Pike VM
//! must agree with the oracle.

use bclean_regex::{parse, Ast, CharClass, Regex};
use proptest::prelude::*;

/// A slow but obviously-correct full-match oracle over the AST.
fn oracle_full_match(ast: &Ast, input: &[char]) -> bool {
    fn go(ast: &Ast, input: &[char], pos: usize, total: usize, k: &mut dyn FnMut(usize) -> bool) -> bool {
        match ast {
            Ast::Empty => k(pos),
            Ast::Literal(c) => pos < input.len() && input[pos] == *c && k(pos + 1),
            Ast::Class(class) => pos < input.len() && class.matches(input[pos]) && k(pos + 1),
            Ast::StartAnchor => pos == 0 && k(pos),
            Ast::EndAnchor => pos == total && k(pos),
            Ast::Group(inner) => go(inner, input, pos, total, k),
            Ast::Concat(items) => {
                fn chain(
                    items: &[Ast],
                    input: &[char],
                    pos: usize,
                    total: usize,
                    k: &mut dyn FnMut(usize) -> bool,
                ) -> bool {
                    match items.split_first() {
                        None => k(pos),
                        Some((head, rest)) => {
                            go(head, input, pos, total, &mut |p| chain(rest, input, p, total, k))
                        }
                    }
                }
                chain(items, input, pos, total, k)
            }
            Ast::Alternate(branches) => branches.iter().any(|b| go(b, input, pos, total, k)),
            Ast::Repeat { node, min, max } => {
                fn rep(
                    node: &Ast,
                    input: &[char],
                    pos: usize,
                    total: usize,
                    done: u32,
                    (min, max): (u32, Option<u32>),
                    k: &mut dyn FnMut(usize) -> bool,
                ) -> bool {
                    if done >= min && k(pos) {
                        return true;
                    }
                    if max.is_some_and(|m| done >= m) {
                        return false;
                    }
                    // Try one more repetition; require progress to avoid infinite
                    // loops on nullable bodies.
                    go(node, input, pos, total, &mut |p| {
                        if p == pos && done >= min {
                            false
                        } else if p == pos {
                            // Nullable body: counts as satisfying remaining minimum.
                            k(p)
                        } else {
                            rep(node, input, p, total, done + 1, (min, max), k)
                        }
                    })
                }
                rep(node, input, pos, total, 0, (*min, *max), k)
            }
        }
    }
    go(ast, input, 0, input.len(), &mut |p| p == input.len())
}

/// Strategy for small patterns over the alphabet {a, b, 0, 1}.
fn small_pattern() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("0".to_string()),
        Just("1".to_string()),
        Just("[ab]".to_string()),
        Just("[01]".to_string()),
        Just("[^a]".to_string()),
        Just(r"\d".to_string()),
        Just(".".to_string()),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("{a}{b}")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}|{b})")),
            inner.clone().prop_map(|a| format!("({a})*")),
            inner.clone().prop_map(|a| format!("({a})+")),
            inner.clone().prop_map(|a| format!("({a})?")),
            inner.clone().prop_map(|a| format!("({a}){{1,3}}")),
            inner,
        ]
    })
}

fn small_input() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ab01]{0,8}").unwrap()
}

proptest! {
    /// The Pike VM agrees with the backtracking oracle on full matches.
    #[test]
    fn vm_agrees_with_oracle(pattern in small_pattern(), input in small_input()) {
        let ast = parse(&pattern).unwrap();
        let re = Regex::new(&pattern).unwrap();
        let chars: Vec<char> = input.chars().collect();
        let expected = oracle_full_match(&ast, &chars);
        prop_assert_eq!(re.is_full_match(&input), expected, "pattern {} on {:?}", pattern, input);
    }

    /// Any literal string (after escaping metacharacters) matches itself.
    #[test]
    fn escaped_literal_matches_itself(s in proptest::string::string_regex("[ -~]{0,12}").unwrap()) {
        let escaped: String = s.chars().flat_map(|c| {
            if "\\^$.|?*+()[]{}".contains(c) { vec!['\\', c] } else { vec![c] }
        }).collect();
        let re = Regex::new(&escaped).unwrap();
        prop_assert!(re.is_full_match(&s));
    }

    /// A full match implies an unanchored match.
    #[test]
    fn full_match_implies_search_match(pattern in small_pattern(), input in small_input()) {
        let re = Regex::new(&pattern).unwrap();
        if re.is_full_match(&input) {
            prop_assert!(re.is_match(&input));
        }
    }

    /// `find` returns offsets within bounds and the reported span re-matches.
    #[test]
    fn find_offsets_in_bounds(pattern in small_pattern(), input in small_input()) {
        let re = Regex::new(&pattern).unwrap();
        if let Some((start, end)) = re.find(&input) {
            prop_assert!(start <= end);
            prop_assert!(end <= input.chars().count());
            let span: String = input.chars().skip(start).take(end - start).collect();
            prop_assert!(re.is_full_match(&span), "span {:?} of {:?} should full-match {}", span, input, pattern);
        }
    }

    /// Character class membership is the complement of its negation.
    #[test]
    fn class_negation_is_complement(c in proptest::char::range('\u{20}', '\u{7e}')) {
        let digit = CharClass::digit();
        let not_digit = CharClass::digit().negate();
        prop_assert_eq!(digit.matches(c), !not_digit.matches(c));
    }
}
