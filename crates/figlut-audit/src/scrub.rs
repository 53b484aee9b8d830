//! A comment/string/attribute-aware line scrubber for Rust sources.
//!
//! The audit lints do not need a full AST: every rule they enforce is
//! expressible over (a) the source with comments and literal *contents*
//! removed and (b) the comment text itself, both kept line-aligned with
//! the original file. This module produces exactly that split. It
//! understands line comments, nested block comments, string literals,
//! raw strings with arbitrary `#` fences, byte/C strings, character
//! literals vs. lifetimes, and escapes — the places a naive substring
//! scan would misfire.

/// One source file split into line-aligned code and comment channels.
#[derive(Debug, Clone)]
pub struct Scrubbed {
    /// Line `i` of the input with comments removed and every string or
    /// character literal replaced by an empty literal (`""` / `' '`).
    /// Identifiers, attributes, and punctuation survive verbatim.
    pub code: Vec<String>,
    /// The concatenated comment text of line `i` (without the `//`,
    /// `///`, `/*` markers), empty for comment-free lines.
    pub comments: Vec<String>,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Code,
    LineComment,
    BlockComment { depth: u32 },
    Str,
    RawStr { fence: u32 },
    Char,
}

/// Split `src` into its code and comment channels. Never fails: input
/// that is not valid Rust simply scrubs conservatively (an unterminated
/// literal swallows the rest of the file as literal text).
pub fn scrub(src: &str) -> Scrubbed {
    let mut code = Vec::new();
    let mut comments = Vec::new();
    let mut mode = Mode::Code;
    for line in src.lines() {
        let (c, m) = scrub_line(line, &mut mode);
        code.push(c);
        comments.push(m);
        // Line comments never span lines.
        if mode == Mode::LineComment {
            mode = Mode::Code;
        }
    }
    Scrubbed { code, comments }
}

fn scrub_line(line: &str, mode: &mut Mode) -> (String, String) {
    let mut code = String::new();
    let mut comment = String::new();
    let bytes: Vec<char> = line.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match *mode {
            Mode::Code => match c {
                '/' if next == Some('/') => {
                    *mode = Mode::LineComment;
                    comment.push_str(&line.chars().skip(i + 2).collect::<String>());
                    break;
                }
                '/' if next == Some('*') => {
                    *mode = Mode::BlockComment { depth: 1 };
                    i += 2;
                }
                '"' => {
                    // Plain (or byte/C) string: the prefix letter was
                    // already emitted as code, which is fine — the lints
                    // only care that the *contents* vanish.
                    code.push('"');
                    *mode = Mode::Str;
                    i += 1;
                }
                'r' if is_raw_string_start(&bytes, i) => {
                    let mut fence = 0;
                    let mut j = i + 1;
                    while bytes.get(j) == Some(&'#') {
                        fence += 1;
                        j += 1;
                    }
                    code.push('"');
                    *mode = Mode::RawStr { fence };
                    i = j + 1;
                }
                '\'' => {
                    // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                    if is_char_literal(&bytes, i) {
                        code.push_str("' '");
                        *mode = Mode::Char;
                        i += 1;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                }
                _ => {
                    code.push(c);
                    i += 1;
                }
            },
            // audit: allow(panic) — scrub() resets LineComment before the next line
            Mode::LineComment => unreachable!("line comments consume the rest of the line"),
            Mode::BlockComment { depth } => {
                if c == '*' && next == Some('/') {
                    let d = depth - 1;
                    *mode = if d == 0 {
                        // Keep token separation across the removed span.
                        code.push(' ');
                        Mode::Code
                    } else {
                        Mode::BlockComment { depth: d }
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    *mode = Mode::BlockComment { depth: depth + 1 };
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            Mode::Str => match c {
                '\\' => i += 2,
                '"' => {
                    code.push('"');
                    *mode = Mode::Code;
                    i += 1;
                }
                _ => i += 1,
            },
            Mode::RawStr { fence } => {
                if c == '"' && closes_raw(&bytes, i, fence) {
                    code.push('"');
                    *mode = Mode::Code;
                    i += 1 + fence as usize;
                } else {
                    i += 1;
                }
            }
            Mode::Char => match c {
                '\\' => i += 2,
                '\'' => {
                    *mode = Mode::Code;
                    i += 1;
                }
                _ => i += 1,
            },
        }
    }
    // A string/char literal can legitimately span lines; comments keep
    // accumulating; everything else resets per line in the caller.
    (code, comment)
}

/// Does the `"` at `bytes[i]` end a raw string with `fence` trailing
/// `#`s?
fn closes_raw(bytes: &[char], i: usize, fence: u32) -> bool {
    (1..=fence as usize).all(|k| bytes.get(i + k) == Some(&'#'))
}

/// Is `bytes[i] == 'r'` the start of a raw string (`r"`, `r#"`, …) rather
/// than an identifier ending in `r`?
fn is_raw_string_start(bytes: &[char], i: usize) -> bool {
    if i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_') {
        return false;
    }
    let mut j = i + 1;
    while bytes.get(j) == Some(&'#') {
        j += 1;
    }
    bytes.get(j) == Some(&'"')
}

/// Distinguish `'a'` / `'\n'` (char literal) from `'a` (lifetime) and
/// `'static`.
fn is_char_literal(bytes: &[char], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some('\\') => true,
        Some(_) => bytes.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Iterate the identifier-ish words of a scrubbed code line.
pub fn words(code_line: &str) -> impl Iterator<Item = &str> {
    code_line
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// Byte ranges of `#[cfg(test)] mod … { … }` regions, as half-open line
/// ranges. Lints that only govern shipping code (the panic-path
/// inventory, the deterministic-crate marker ban) skip these lines.
pub fn cfg_test_regions(scrubbed: &Scrubbed) -> Vec<std::ops::Range<usize>> {
    braced_regions(scrubbed, "#[cfg(test)]")
}

/// Line ranges of the `{ … }` items introduced by a line starting with
/// `opener` (`#[cfg(test)]`, `thread_local!`), opener line included.
pub fn braced_regions(scrubbed: &Scrubbed, opener: &str) -> Vec<std::ops::Range<usize>> {
    let mut regions = Vec::new();
    let n = scrubbed.code.len();
    let mut i = 0;
    while i < n {
        if !scrubbed.code[i].trim().starts_with(opener) {
            i += 1;
            continue;
        }
        // Find the `{` that opens the annotated item (usually `mod tests {`
        // on the next line) and walk to its matching brace.
        let mut depth = 0i32;
        let mut opened = false;
        let start = i;
        let mut j = i;
        'outer: while j < n {
            for ch in scrubbed.code[j].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    ';' if !opened && depth == 0 => {
                        // `#[cfg(test)] use …;` — no body to skip.
                        break 'outer;
                    }
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                regions.push(start..j + 1);
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    regions
}

/// True if `line` (0-based) falls in any of `regions`.
pub fn in_regions(regions: &[std::ops::Range<usize>], line: usize) -> bool {
    regions.iter().any(|r| r.contains(&line))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let s = scrub("let x = 1; // trailing HashMap\n/* block\nHashMap\n*/ let y = 2;");
        assert_eq!(s.code[0], "let x = 1; ");
        assert!(s.comments[0].contains("HashMap"));
        assert!(!s.code[1].contains("HashMap"));
        assert!(!s.code[2].contains("HashMap"));
        assert!(s.code[3].contains("let y = 2;"));
    }

    #[test]
    fn nested_block_comments() {
        let s = scrub("/* a /* b */ still comment */ code()");
        assert!(!s.code[0].contains("still"));
        assert!(s.code[0].contains("code()"));
    }

    #[test]
    fn blanks_string_contents_including_raw() {
        let s = scrub(r##"let a = "HashMap"; let b = r#"Instant::now"#; f();"##);
        assert!(!s.code[0].contains("HashMap"));
        assert!(!s.code[0].contains("Instant"));
        assert!(s.code[0].contains("f();"));
    }

    #[test]
    fn multiline_string_swallows_code_tokens() {
        let s = scrub("let a = \"start\nHashMap\nend\"; g();");
        assert!(!s.code[1].contains("HashMap"));
        assert!(s.code[2].contains("g();"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let s = scrub("fn f<'a>(x: &'a str) { let c = '\"'; let d = 'H'; }");
        assert!(s.code[0].contains("'a"));
        assert!(!s.code[0].contains('H'));
        // The blanked char literal must not open a string.
        assert!(s.code[0].ends_with('}'));
    }

    #[test]
    fn escaped_quote_in_string() {
        let s = scrub(r#"let a = "he\"llo HashMap"; h();"#);
        assert!(!s.code[0].contains("HashMap"));
        assert!(s.code[0].contains("h();"));
    }

    #[test]
    fn identifier_ending_in_r_is_not_raw_string() {
        let s = scrub(r#"let var = attr"x";"#);
        // `attr"x"` would be weird Rust, but `r` inside an identifier
        // must not trigger raw-string mode and eat the semicolon.
        assert!(s.code[0].ends_with(';'));
    }

    #[test]
    fn finds_cfg_test_region() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn b() {}";
        let s = scrub(src);
        let r = cfg_test_regions(&s);
        assert_eq!(r.len(), 1);
        assert!(in_regions(&r, 3));
        assert!(!in_regions(&r, 0));
        assert!(!in_regions(&r, 5));
    }

    #[test]
    fn cfg_test_on_use_item_does_not_swallow_file() {
        let src = "#[cfg(test)]\nuse std::fmt;\nfn real() { y.unwrap(); }";
        let s = scrub(src);
        let r = cfg_test_regions(&s);
        assert!(!in_regions(&r, 2));
    }

    #[test]
    fn words_splits_identifiers() {
        let w: Vec<_> = words("use std::collections::HashMap; x.unwrap_or(0)").collect();
        assert!(w.contains(&"HashMap"));
        assert!(w.contains(&"unwrap_or"));
        assert!(!w.contains(&"unwrap"));
    }
}
