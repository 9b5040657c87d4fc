//! A self-contained Rust source scanner — no compiler, no registry
//! dependencies — sufficient for the project lints.
//!
//! It is *not* a parser: it cleans a source file (comments removed,
//! string and char literals neutralized so braces inside them cannot
//! confuse anything), tracks `#[cfg(test)] mod` regions, extracts brace-balanced
//! `fn` and `struct` bodies, and records `// po-analyze: allow(RULE)`
//! escape hatches.

/// One scanned source file.
#[derive(Debug)]
pub struct ScannedFile {
    /// Cleaned lines: comments stripped, string/char literal contents
    /// replaced by spaces (the quotes remain as `"​"` markers).
    pub lines: Vec<String>,
    /// 0-based line indices lying inside a `#[cfg(test)] mod` block.
    pub test_lines: Vec<bool>,
    /// `(0-based line, rule)` pairs from `po-analyze: allow(...)`
    /// comments; each suppresses the rule on that line and the next.
    pub allows: Vec<(usize, String)>,
}

/// A brace-balanced item body (a `fn` or a `struct`).
#[derive(Debug)]
pub struct Block {
    /// Item name (`fn` or `struct` identifier).
    pub name: String,
    /// 0-based line of the item header.
    pub start: usize,
    /// 0-based line of the closing brace (inclusive).
    pub end: usize,
}

impl ScannedFile {
    /// Scans `text`.
    #[must_use]
    pub fn scan(text: &str) -> Self {
        let mut lines = Vec::new();
        let mut allows = Vec::new();
        let mut in_block_comment = false;
        let mut in_string = false;
        for (lineno, raw) in text.lines().enumerate() {
            let (clean, comment) = clean_line(raw, &mut in_block_comment, &mut in_string);
            if let Some(c) = comment {
                for rule in parse_allows(&c) {
                    allows.push((lineno, rule));
                }
            }
            lines.push(clean);
        }
        let test_lines = mark_test_mods(&lines);
        Self { lines, test_lines, allows }
    }

    /// Whether `rule` is allowed (suppressed) at 0-based line `line`.
    #[must_use]
    pub fn allowed(&self, line: usize, rule: &str) -> bool {
        self.allows.iter().any(|(l, r)| r == rule && (*l == line || l + 1 == line))
    }

    /// All brace-balanced bodies of items introduced by `keyword`
    /// (`"fn"` or `"struct"`), excluding `#[cfg(test)]` regions.
    #[must_use]
    pub fn blocks(&self, keyword: &str) -> Vec<Block> {
        let mut out = Vec::new();
        let pat = format!("{keyword} ");
        let mut i = 0;
        while i < self.lines.len() {
            if self.test_lines[i] {
                i += 1;
                continue;
            }
            let line = &self.lines[i];
            if let Some(name) = item_name(line, &pat) {
                // `struct Foo;` / `struct Foo(u8);` have no body to walk.
                if keyword == "struct" && terminated_without_body(line) {
                    i += 1;
                    continue;
                }
                if let Some(end) = self.balance_from(i) {
                    out.push(Block { name, start: i, end });
                    i = if keyword == "fn" { end + 1 } else { i + 1 };
                    continue;
                }
            }
            i += 1;
        }
        out
    }

    /// Finds the 0-based line index on which the brace opened at or
    /// after line `start` closes. `None` if the file ends first.
    fn balance_from(&self, start: usize) -> Option<usize> {
        let mut depth = 0i64;
        let mut opened = false;
        for (i, line) in self.lines.iter().enumerate().skip(start) {
            for c in line.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    // A `fn f();` trait-style signature has no body.
                    ';' if !opened => return None,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                return Some(i);
            }
        }
        None
    }
}

/// `struct Foo;` or `struct Foo(A, B);` — no brace-balanced body.
fn terminated_without_body(line: &str) -> bool {
    match (line.find('{'), line.find(';')) {
        (None, Some(_)) => true,
        (Some(b), Some(s)) => s < b,
        _ => false,
    }
}

/// Extracts the identifier following `pat` (e.g. `"fn "`) on `line`,
/// ignoring matches like `pub fn` prefixes handled by searching for the
/// pattern anywhere preceded by start/space.
fn item_name(line: &str, pat: &str) -> Option<String> {
    let at = line.find(pat)?;
    if at > 0 {
        let before = line.as_bytes()[at - 1];
        if !(before == b' ' || before == b'(') {
            return None;
        }
    }
    let rest = &line[at + pat.len()..];
    let name: String = rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Skips string-literal content starting at `chars[i]`; returns the
/// index of the closing quote (or `chars.len()`) and whether it closed.
fn skip_string(chars: &[char], mut i: usize) -> (usize, bool) {
    while i < chars.len() {
        match chars[i] {
            '\\' if i + 1 < chars.len() => i += 2,
            '"' => return (i, true),
            _ => i += 1,
        }
    }
    (i, false)
}

/// Cleans one line: returns the cleaned text and the comment text if
/// the line carried one.
fn clean_line(
    raw: &str,
    in_block_comment: &mut bool,
    in_string: &mut bool,
) -> (String, Option<String>) {
    let mut out = String::with_capacity(raw.len());
    let mut comment = None;
    let chars: Vec<char> = raw.chars().collect();
    let mut i = 0;
    // A string literal left open on a previous line: its continuation
    // is literal content, never code.
    if *in_string {
        let (end, closed) = skip_string(&chars, 0);
        i = end + 1;
        *in_string = !closed;
    }
    while i < chars.len() {
        if *in_block_comment {
            if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                *in_block_comment = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        let c = chars[i];
        match c {
            '/' if chars.get(i + 1) == Some(&'/') => {
                comment = Some(chars[i..].iter().collect());
                break;
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                *in_block_comment = true;
                i += 2;
            }
            '"' => {
                // String literal: neutralized in the cleaned line. If
                // the line ends before the closing quote, the literal
                // continues on the next line.
                let (end, closed) = skip_string(&chars, i + 1);
                i = end + 1; // closing quote (or EOL on a continued literal)
                out.push_str("\"\"");
                *in_string = !closed;
            }
            '\'' => {
                // Char literal vs lifetime. `'\n'`, `'x'` are literals;
                // `'a` (lifetime) is left alone.
                if chars.get(i + 1) == Some(&'\\') {
                    // Escaped char literal: skip to the closing quote.
                    let mut j = i + 2;
                    while j < chars.len() && chars[j] != '\'' {
                        j += 1;
                    }
                    out.push_str("' '");
                    i = j + 1;
                } else if chars.get(i + 2) == Some(&'\'') {
                    out.push_str("' '");
                    i += 3;
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    (out, comment)
}

/// Extracts rules from `po-analyze: allow(RULE)` in a comment.
fn parse_allows(comment: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find("po-analyze: allow(") {
        let tail = &rest[at + "po-analyze: allow(".len()..];
        if let Some(close) = tail.find(')') {
            out.push(tail[..close].trim().to_string());
            rest = &tail[close..];
        } else {
            break;
        }
    }
    out
}

/// Marks lines inside `#[cfg(test)] mod ... { }` blocks.
fn mark_test_mods(lines: &[String]) -> Vec<bool> {
    let mut marked = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim_start().starts_with("#[cfg(test)]") {
            // Find the mod opening within the next couple of lines.
            let mut j = i;
            let mut found = false;
            while j < lines.len() && j <= i + 3 {
                if lines[j].contains("mod ") {
                    found = true;
                    break;
                }
                j += 1;
            }
            if found {
                let mut depth = 0i64;
                let mut opened = false;
                while j < lines.len() {
                    for c in lines[j].chars() {
                        match c {
                            '{' => {
                                depth += 1;
                                opened = true;
                            }
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    marked[j] = true;
                    if opened && depth <= 0 {
                        break;
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    marked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_separated() {
        let src = "let x = \"a // not a comment\"; // real comment\n";
        let f = ScannedFile::scan(src);
        assert!(!f.lines[0].contains("not a"), "{}", f.lines[0]);
        assert!(!f.lines[0].contains("real"), "{}", f.lines[0]);
    }

    #[test]
    fn char_literals_do_not_break_braces() {
        let src = "fn f() {\n    let c = '{';\n    let lt: &'static str = \"x\";\n}\nfn g() {}\n";
        let f = ScannedFile::scan(src);
        let fns = f.blocks("fn");
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "f");
        assert_eq!(fns[0].end, 3);
        assert_eq!(fns[1].name, "g");
    }

    #[test]
    fn test_mods_are_excluded() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn fake() {}\n}\n";
        let f = ScannedFile::scan(src);
        let fns = f.blocks("fn");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }

    #[test]
    fn unit_structs_have_no_body() {
        let src = "struct A;\nstruct B(u8);\nstruct C {\n    x: u8,\n}\n";
        let f = ScannedFile::scan(src);
        let structs = f.blocks("struct");
        assert_eq!(structs.len(), 1);
        assert_eq!(structs[0].name, "C");
    }

    #[test]
    fn allow_directives_suppress_current_and_next_line() {
        let src = "// po-analyze: allow(PA-L004)\nlet x = 1;\nlet y = 2;\n";
        let f = ScannedFile::scan(src);
        assert!(f.allowed(0, "PA-L004"));
        assert!(f.allowed(1, "PA-L004"));
        assert!(!f.allowed(2, "PA-L004"));
        assert!(!f.allowed(1, "PA-L005"));
    }
}
