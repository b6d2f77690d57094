//! Project lint: source-level invariants clippy cannot express.
//!
//! A hand-rolled line lexer (no `syn`) splits every source line into its
//! code and comment halves — tracking block comments, string/char
//! literals, and raw strings — and seven rules run over the result:
//!
//! 1. **panic-free** — no `.unwrap()` / `.expect(` / `panic!` in library
//!    crates outside test code. Existing debt is carried by a ratcheting
//!    per-file allowlist ([`ALLOWLIST`]): counts may only go down, and
//!    `--update-allowlist` re-records the current (lower) counts.
//! 2. **no-fma** — no `mul_add` anywhere in `crates/sparse`: the panel
//!    kernels' bitwise-reproducibility contract forbids FMA contraction,
//!    in scalar code as much as in intrinsics.
//! 3. **determinism** — no `Instant` / `SystemTime` / default-hasher
//!    `HashMap` in the simnet crate: virtual time and seeded iteration
//!    order are the whole point of the deterministic network simulator.
//! 4. **safety-comment** — every `unsafe` block is annotated with a
//!    `SAFETY:` comment on the block or just above it.
//! 5. **hot-path-alloc** — no `Vec::new` / `vec![` / `Box::new` /
//!    `.collect(` / `.to_vec()` inside a function tagged
//!    `// lint: hot-path` (the alloc-free inner-loop contract).
//! 6. **single-report** — in library crates outside test code, a
//!    `SolveReport {` struct literal appears only in
//!    `crates/core/src/report.rs`: every executor reports through
//!    `SolveReport::assemble`, which holds the one `converged` rule.
//! 7. **single-scorer** — in `crates/core/src` and `crates/net/src`
//!    outside test code, `.reconstruct(` is never called, and
//!    `residual_norm(` / `rms_error(` only in `crates/core/src/monitor.rs`:
//!    the one `Monitor` scores every executor, on the caller's own system.
//!
//! Run as `cargo run -p dtm-lint` or `repro lint`; both exit nonzero on
//! any finding, which is what gates CI.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Workspace-relative path of the ratcheting allowlist for rule 1.
pub const ALLOWLIST: &str = "crates/lint/panic_allowlist.txt";

/// Which rule produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    PanicFree,
    NoFma,
    Determinism,
    SafetyComment,
    HotPathAlloc,
    SingleReport,
    SingleScorer,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::PanicFree => "panic-free",
            Rule::NoFma => "no-fma",
            Rule::Determinism => "determinism",
            Rule::SafetyComment => "safety-comment",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::SingleReport => "single-report",
            Rule::SingleScorer => "single-scorer",
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub file: PathBuf,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Line lexer
// ---------------------------------------------------------------------------

/// A source line split into code and comment text. String and char
/// literal *contents* are blanked in `code` (quotes kept) so token
/// scans never match inside literals; comment text never appears in
/// `code` and vice versa.
#[derive(Debug, Default, Clone)]
pub struct LexedLine {
    pub code: String,
    pub comment: String,
}

#[derive(Clone, Copy)]
enum LexState {
    Code,
    /// Inside a `"…"` literal.
    Str,
    /// Inside a raw string with this many `#` marks.
    RawStr(usize),
    /// Inside `/* … */` comments nested this deep.
    BlockComment(usize),
}

/// Lex full source text into per-line code/comment splits. The lexer is
/// deliberately line-oriented and approximate — good enough for token
/// scanning, not a parser — but it does get block-comment nesting, raw
/// strings, escapes, and the char-literal/lifetime ambiguity right.
pub fn lex(text: &str) -> Vec<LexedLine> {
    let mut out = Vec::new();
    let mut state = LexState::Code;
    for raw in text.lines() {
        let b: Vec<char> = raw.chars().collect();
        let mut line = LexedLine::default();
        let mut i = 0;
        while i < b.len() {
            match state {
                LexState::Code => {
                    let c = b[i];
                    if c == '/' && b.get(i + 1) == Some(&'/') {
                        // Line comment: rest of the line is comment text.
                        line.comment.extend(&b[i..]);
                        i = b.len();
                    } else if c == '/' && b.get(i + 1) == Some(&'*') {
                        state = LexState::BlockComment(1);
                        i += 2;
                    } else if c == '"' {
                        line.code.push('"');
                        state = LexState::Str;
                        i += 1;
                    } else if c == 'r'
                        && matches!(b.get(i + 1), Some('"' | '#'))
                        && !prev_is_ident(&line.code)
                    {
                        // Raw string r"…" / r#"…"#.
                        let mut hashes = 0;
                        let mut j = i + 1;
                        while b.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if b.get(j) == Some(&'"') {
                            line.code.push_str("r\"");
                            state = LexState::RawStr(hashes);
                            i = j + 1;
                        } else {
                            // `r#ident` raw identifier, not a string.
                            line.code.push(c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        // Char literal vs lifetime: 'x' or '\n' closes
                        // with a quote; 'a (lifetime) does not.
                        if b.get(i + 1) == Some(&'\\') {
                            line.code.push_str("' '");
                            let mut j = i + 2;
                            while j < b.len() && b[j] != '\'' {
                                j += 1;
                            }
                            i = j + 1;
                        } else if b.get(i + 2) == Some(&'\'') {
                            line.code.push_str("' '");
                            i += 3;
                        } else {
                            line.code.push(c); // lifetime tick
                            i += 1;
                        }
                    } else {
                        line.code.push(c);
                        i += 1;
                    }
                }
                LexState::Str => {
                    let c = b[i];
                    if c == '\\' {
                        line.code.push(' ');
                        i += 2; // skip the escaped char (incl. \")
                        i = i.min(b.len());
                    } else if c == '"' {
                        line.code.push('"');
                        state = LexState::Code;
                        i += 1;
                    } else {
                        line.code.push(' ');
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    let closes = b[i] == '"'
                        && b[i + 1..]
                            .iter()
                            .take(hashes)
                            .filter(|&&c| c == '#')
                            .count()
                            == hashes;
                    if closes {
                        line.code.push('"');
                        state = LexState::Code;
                        i += 1 + hashes;
                    } else {
                        line.code.push(' ');
                        i += 1;
                    }
                }
                LexState::BlockComment(depth) => {
                    if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        state = if depth == 1 {
                            LexState::Code
                        } else {
                            LexState::BlockComment(depth - 1)
                        };
                        i += 2;
                    } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        state = LexState::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        line.comment.push(b[i]);
                        i += 1;
                    }
                }
            }
        }
        // Strings and block comments legitimately span lines in Rust,
        // so `state` carries across the newline unchanged.
        out.push(line);
    }
    out
}

fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .last()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Mark the lines belonging to `#[cfg(test)] mod … { … }` regions so the
/// panic-free rule can skip test code. Returns one flag per line.
pub fn test_region_mask(lines: &[LexedLine]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let t = lines[i].code.trim();
        if t.starts_with("#[cfg(test)]") {
            // Scan forward past further attributes/blank lines to the
            // item; if it opens a brace-block, mask to the matching
            // close (covers `mod tests {` and `#[cfg(test)] fn`s).
            let mut j = i + 1;
            while j < lines.len() && {
                let s = lines[j].code.trim();
                s.is_empty() || s.starts_with("#[")
            } {
                j += 1;
            }
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut k = j;
            while k < lines.len() {
                for c in lines[k].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                k += 1;
            }
            let end = k.min(lines.len().saturating_sub(1));
            for m in mask.iter_mut().take(end + 1).skip(i) {
                *m = true;
            }
            i = k + 1;
        } else {
            i += 1;
        }
    }
    mask
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

fn finding(rule: Rule, file: &Path, line: usize, message: impl Into<String>) -> Finding {
    Finding {
        rule,
        file: file.to_path_buf(),
        line: line + 1,
        message: message.into(),
    }
}

/// Rule 1 body: report every panic-capable call outside test regions.
/// The allowlist layer downstream decides which hits are new debt.
pub fn scan_panics(file: &Path, lines: &[LexedLine]) -> Vec<Finding> {
    let mask = test_region_mask(lines);
    let mut out = Vec::new();
    for (n, l) in lines.iter().enumerate() {
        if mask[n] {
            continue;
        }
        for (tok, what) in [
            (".unwrap()", "unwrap() can panic"),
            (".expect(", "expect() can panic"),
            ("panic!", "explicit panic!"),
        ] {
            let mut hay = l.code.as_str();
            while let Some(p) = hay.find(tok) {
                // `.expect(` cannot match `.expect_err(` because the
                // token includes the open paren; `panic!` must not match
                // the tail of e.g. `dont_panic!`.
                let pre = &l.code[..l.code.len() - hay.len() + p];
                if tok != "panic!" || !prev_is_ident(pre) {
                    out.push(finding(
                        Rule::PanicFree,
                        file,
                        n,
                        format!("{what} in library code (use a typed error)"),
                    ));
                }
                hay = &hay[p + tok.len()..];
            }
        }
    }
    out
}

/// Rule 2: the sparse kernels' never-FMA contract.
pub fn scan_fma(file: &Path, lines: &[LexedLine]) -> Vec<Finding> {
    lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.code.contains("mul_add"))
        .map(|(n, _)| {
            finding(
                Rule::NoFma,
                file,
                n,
                "mul_add violates the bitwise-reproducibility (never-FMA) contract",
            )
        })
        .collect()
}

/// Rule 3: wall clocks and unordered iteration break simnet determinism.
pub fn scan_determinism(file: &Path, lines: &[LexedLine]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (n, l) in lines.iter().enumerate() {
        for (tok, what) in [
            ("Instant", "wall-clock Instant in a virtual-time module"),
            (
                "SystemTime",
                "wall-clock SystemTime in a virtual-time module",
            ),
            (
                "HashMap",
                "default-hasher HashMap iterates in seed-dependent order (use BTreeMap)",
            ),
        ] {
            let mut hay = l.code.as_str();
            while let Some(p) = hay.find(tok) {
                let pre = &l.code[..l.code.len() - hay.len() + p];
                let post = &hay[p + tok.len()..];
                let next_ident = post
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
                if !prev_is_ident(pre) && !next_ident {
                    out.push(finding(Rule::Determinism, file, n, what));
                }
                hay = post;
            }
        }
    }
    out
}

/// Rule 4: every `unsafe` block carries a `SAFETY:` comment, either on
/// the block's own line or in the comment block directly above it.
pub fn scan_safety(file: &Path, lines: &[LexedLine]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (n, l) in lines.iter().enumerate() {
        let code = &l.code;
        let mut hay = code.as_str();
        while let Some(p) = hay.find("unsafe") {
            let abs = code.len() - hay.len() + p;
            let pre = &code[..abs];
            let post = &hay[p + "unsafe".len()..];
            hay = post;
            if prev_is_ident(pre)
                || post
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                continue; // identifier containing "unsafe"
            }
            let rest = post.trim_start();
            // `unsafe fn` / `unsafe impl` / `unsafe trait` declare a
            // contract rather than discharge one; `unsafe_op_in_unsafe_fn`
            // (denied workspace-wide) forces interior blocks, which is
            // where this rule then applies.
            if rest.starts_with("fn")
                || rest.starts_with("impl")
                || rest.starts_with("trait")
                || rest.starts_with("extern")
            {
                continue;
            }
            // Accept `SAFETY:` on the block's own line or anywhere in
            // the contiguous run of pure-comment lines directly above
            // it (multi-line justifications are encouraged, not capped).
            let mut documented = l.comment.contains("SAFETY:");
            let mut m = n;
            while !documented && m > 0 {
                m -= 1;
                let above = &lines[m];
                if !above.code.trim().is_empty() {
                    break;
                }
                documented = above.comment.contains("SAFETY:");
                if above.comment.is_empty() {
                    break; // blank line ends the comment block
                }
            }
            if !documented {
                out.push(finding(
                    Rule::SafetyComment,
                    file,
                    n,
                    "unsafe block without a `// SAFETY:` comment",
                ));
            }
        }
    }
    out
}

/// Rule 5: functions tagged `// lint: hot-path` must not allocate.
pub fn scan_hot_path(file: &Path, lines: &[LexedLine]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        // The tag must BE the comment, not merely appear in one —
        // otherwise prose mentioning the marker (like this lint's own
        // docs) would tag whatever function follows it.
        if !lines[i]
            .comment
            .trim_start()
            .starts_with("// lint: hot-path")
        {
            i += 1;
            continue;
        }
        // Find the tagged fn's body: first `{` at or after the tag,
        // then brace-balance to its close.
        let mut j = i;
        while j < lines.len() && !lines[j].code.contains('{') {
            j += 1;
        }
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut k = j;
        while k < lines.len() {
            let l = &lines[k];
            for (tok, what) in [
                ("Vec::new", "Vec::new allocates"),
                ("vec!", "vec! allocates"),
                ("Box::new", "Box::new allocates"),
                (".collect(", "collect() allocates"),
                (".collect::<", "collect() allocates"),
                (".to_vec()", "to_vec() allocates"),
            ] {
                if l.code.contains(tok) {
                    out.push(finding(
                        Rule::HotPathAlloc,
                        file,
                        k,
                        format!("{what} inside a `lint: hot-path` function"),
                    ));
                }
            }
            for c in l.code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            k += 1;
        }
        i = k + 1;
    }
    out
}

/// The one file allowed to build a `SolveReport` by hand (rule 6).
const REPORT_HOME: &str = "crates/core/src/report.rs";

/// Rule 6: a `SolveReport { .. }` literal outside test code. The type's
/// own declaration, `impl` headers and `-> SolveReport {` signatures are
/// not literals.
pub fn scan_single_report(file: &Path, lines: &[LexedLine]) -> Vec<Finding> {
    const TOK: &str = "SolveReport {";
    let mask = test_region_mask(lines);
    let mut out = Vec::new();
    for (n, l) in lines.iter().enumerate() {
        if mask[n] {
            continue;
        }
        let mut hay = l.code.as_str();
        while let Some(p) = hay.find(TOK) {
            let pre = &l.code[..l.code.len() - hay.len() + p];
            let before = pre.trim_end();
            let declares = ["struct", "impl", "for", "->"]
                .iter()
                .any(|kw| before.ends_with(kw));
            if !prev_is_ident(pre) && !declares {
                out.push(finding(
                    Rule::SingleReport,
                    file,
                    n,
                    "SolveReport built by hand (go through SolveReport::assemble)",
                ));
            }
            hay = &hay[p + TOK.len()..];
        }
    }
    out
}

/// The one file allowed to score an estimate (rule 7), the source trees
/// the rule covers, and the calls it forbids (the home only the first).
const SCORER_HOME: &str = "crates/core/src/monitor.rs";
const SCORED_TREES: [&str; 2] = ["crates/core/src/", "crates/net/src/"];
const SCORER_CALLS: [&str; 3] = ["reconstruct(", "residual_norm(", "rms_error("];

/// Rule 7: an estimate scored by hand, or a split re-summed, outside test code.
pub fn scan_single_scorer(file: &Path, lines: &[LexedLine], home: bool) -> Vec<Finding> {
    let mask = test_region_mask(lines);
    let mut out = Vec::new();
    for (n, l) in lines.iter().enumerate() {
        for tok in &SCORER_CALLS[..if home { 1 } else { 3 }] {
            let mut at = l.code.match_indices(tok);
            if !mask[n] && at.any(|(p, _)| !prev_is_ident(&l.code[..p])) {
                out.push(finding(
                    Rule::SingleScorer,
                    file,
                    n,
                    "scored by hand or against a re-summed split (feed the Monitor)",
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Workspace driver
// ---------------------------------------------------------------------------

/// Crates whose `src/` must be panic-free (rule 1). The bench harness
/// and vendored stand-ins are exempt: the harness is allowed to die
/// loudly, and minloom uses panics as scheduler control flow.
const LIBRARY_CRATES: [&str; 5] = [
    "crates/core",
    "crates/graph",
    "crates/net",
    "crates/simnet",
    "crates/sparse",
];

/// Directories scanned for the universal safety rule (and the
/// per-crate rules 2/3/5). Fixture files under `crates/lint/fixtures`
/// are excluded — they exist to trip every rule in the self-tests.
const SCAN_ROOTS: [&str; 2] = ["crates", "vendor"];

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            let name = p.file_name().and_then(|s| s.to_str()).unwrap_or("");
            if name == "target" || name == "fixtures" {
                continue;
            }
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn rel<'a>(root: &Path, p: &'a Path) -> &'a Path {
    p.strip_prefix(root).unwrap_or(p)
}

/// Scan one file, applying every rule whose scope covers `relpath`.
/// Panic findings are returned separately — they go through the
/// allowlist, not straight to the report.
pub fn scan_file(relpath: &Path, text: &str) -> (Vec<Finding>, Vec<Finding>) {
    let lines = lex(text);
    let s = relpath.to_string_lossy().replace('\\', "/");
    let mut findings = scan_safety(relpath, &lines);
    if s.starts_with("crates/sparse/") {
        findings.extend(scan_fma(relpath, &lines));
    }
    if s.starts_with("crates/simnet/src/") {
        findings.extend(scan_determinism(relpath, &lines));
    }
    findings.extend(scan_hot_path(relpath, &lines));
    let mut panics = Vec::new();
    let in_lib = LIBRARY_CRATES
        .iter()
        .any(|c| s.starts_with(&format!("{c}/src/")));
    if in_lib {
        panics = scan_panics(relpath, &lines);
        if s != REPORT_HOME {
            findings.extend(scan_single_report(relpath, &lines));
        }
    }
    if SCORED_TREES.iter().any(|t| s.starts_with(t)) {
        findings.extend(scan_single_scorer(relpath, &lines, s == SCORER_HOME));
    }
    (findings, panics)
}

/// Parse the ratcheting allowlist: `<count> <path>` per line.
fn parse_allowlist(text: &str) -> BTreeMap<String, usize> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        if let (Some(count), Some(path)) = (it.next(), it.next()) {
            if let Ok(c) = count.parse::<usize>() {
                map.insert(path.to_string(), c);
            }
        }
    }
    map
}

fn render_allowlist(counts: &BTreeMap<String, usize>) -> String {
    let mut s = String::from(
        "# Ratcheting allowlist for the panic-free-library lint rule.\n\
         # Format: <count> <path>. Counts may only decrease; after paying\n\
         # down debt, regenerate with `cargo run -p dtm-lint -- --update-allowlist`.\n",
    );
    for (path, count) in counts {
        if *count > 0 {
            s.push_str(&format!("{count} {path}\n"));
        }
    }
    s
}

/// Outcome of a workspace lint run.
pub struct Summary {
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
    /// Files whose panic count dropped below the allowlist cap:
    /// `(file, current, cap)` ratchet opportunities, reported but not
    /// failing.
    pub ratchet: Vec<(String, usize, usize)>,
}

/// Locate the workspace root: walk up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut d = Some(start.to_path_buf());
    while let Some(cur) = d {
        let manifest = cur.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(cur);
            }
        }
        d = cur.parent().map(Path::to_path_buf);
    }
    None
}

/// Run every rule over the workspace at `root`. With `update_allowlist`
/// the panic allowlist is rewritten to the current counts instead of
/// being enforced.
pub fn run(root: &Path, update_allowlist: bool) -> std::io::Result<Summary> {
    let mut files = Vec::new();
    for sub in SCAN_ROOTS {
        collect_rs(&root.join(sub), &mut files);
    }
    let mut findings = Vec::new();
    let mut panic_hits: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for path in &files {
        let text = fs::read_to_string(path)?;
        let relpath = rel(root, path).to_path_buf();
        let (f, p) = scan_file(&relpath, &text);
        findings.extend(f);
        if !p.is_empty() {
            panic_hits.insert(relpath.to_string_lossy().replace('\\', "/"), p);
        }
    }

    let allowlist_path = root.join(ALLOWLIST);
    let mut ratchet = Vec::new();
    if update_allowlist {
        let counts: BTreeMap<String, usize> = panic_hits
            .iter()
            .map(|(k, v)| (k.clone(), v.len()))
            .collect();
        fs::write(&allowlist_path, render_allowlist(&counts))?;
    } else {
        let allowed = parse_allowlist(&fs::read_to_string(&allowlist_path).unwrap_or_default());
        for (file, hits) in &panic_hits {
            let cap = allowed.get(file).copied().unwrap_or(0);
            match hits.len() {
                n if n > cap => {
                    // Over budget: new debt is indistinguishable from
                    // old, so report every site with the budget context.
                    for h in hits {
                        let mut h = h.clone();
                        h.message = format!("{} [{n} in file, allowlist caps {cap}]", h.message);
                        findings.push(h);
                    }
                }
                n if n < cap => ratchet.push((file.clone(), n, cap)),
                _ => {}
            }
        }
        // Stale entries for files that went fully clean are ratchet
        // opportunities too.
        for (file, cap) in &allowed {
            if !panic_hits.contains_key(file) && *cap > 0 {
                ratchet.push((file.clone(), 0, *cap));
            }
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(Summary {
        files_scanned: files.len(),
        findings,
        ratchet,
    })
}

/// CLI entry shared by `cargo run -p dtm-lint` and `repro lint`:
/// lint the enclosing workspace, print findings, and return `Err` (for
/// a nonzero exit) if any rule fired.
pub fn run_cli(args: &[String]) -> Result<(), String> {
    let update = args.iter().any(|a| a == "--update-allowlist");
    let start = std::env::current_dir().map_err(|e| e.to_string())?;
    let root = find_root(&start)
        .or_else(|| {
            // Fall back to the compile-time layout (this crate lives at
            // <root>/crates/lint) for out-of-tree invocations.
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .parent()
                .and_then(Path::parent)
                .map(Path::to_path_buf)
        })
        .ok_or("cannot locate workspace root")?;
    let summary = run(&root, update).map_err(|e| e.to_string())?;
    for f in &summary.findings {
        eprintln!("{f}");
    }
    for (file, now, cap) in &summary.ratchet {
        eprintln!(
            "note: {file} has {now} panic sites but the allowlist caps {cap} — \
             ratchet down with `cargo run -p dtm-lint -- --update-allowlist`"
        );
    }
    if update {
        println!("allowlist rewritten: {ALLOWLIST}");
    }
    if summary.findings.is_empty() {
        println!(
            "lint clean: {} files scanned, 0 findings{}",
            summary.files_scanned,
            if summary.ratchet.is_empty() {
                String::new()
            } else {
                format!(" ({} ratchet notes)", summary.ratchet.len())
            }
        );
        Ok(())
    } else {
        Err(format!("{} lint finding(s)", summary.findings.len()))
    }
}

#[cfg(test)]
mod tests;
