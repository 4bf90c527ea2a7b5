//! simcheck — the workspace's static-analysis engine (`cargo xtask lint`).
//!
//! Successor to the line-regex `simaudit` linter: a hand-rolled lexer
//! ([`lexer`](crate::lexer)) feeds token-level rules ([`rules`]) plus the
//! cross-file `audit`/`trace` feature-gate pass ([`features`]) — with
//! `simaudit:allow(<rule>)` marker hygiene enforced on top (a marker that
//! suppresses nothing, or carries no written justification, is itself an
//! error). See `docs/STATIC_ANALYSIS.md` for the rule catalogue and the
//! `--format json` schema.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::features;
use crate::lexer::LexedFile;
use crate::report::{self, Diagnostic, RULES, SUPPRESSIBLE};
use crate::rules;

/// Output format selected with `--format`.
#[derive(PartialEq, Clone, Copy)]
enum Format {
    Text,
    Json,
}

/// Entry point for `cargo xtask lint`.
pub fn run(args: &[String]) -> ExitCode {
    let mut quiet = false;
    let mut format = Format::Text;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quiet" => quiet = true,
            "--format" => match it.next().map(String::as_str) {
                Some("json") => format = Format::Json,
                Some("text") => format = Format::Text,
                other => {
                    eprintln!(
                        "error: --format expects `json` or `text`, got {}",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::FAILURE;
                }
            },
            a if a.starts_with("--format=") => match &a["--format=".len()..] {
                "json" => format = Format::Json,
                "text" => format = Format::Text,
                other => {
                    eprintln!("error: --format expects `json` or `text`, got `{other}`");
                    return ExitCode::FAILURE;
                }
            },
            bad => {
                eprintln!("error: unknown lint option `{bad}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let root = workspace_root();
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    files.sort();

    let mut lexed: BTreeMap<String, LexedFile> = BTreeMap::new();
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        match fs::read_to_string(path) {
            Ok(content) => {
                lexed.insert(rel, LexedFile::lex(&content));
            }
            Err(e) => {
                eprintln!("error: cannot read {rel}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let scanned = lexed.len();

    // Per-file token rules, symmetry, and marker hygiene.
    let mut diags = Vec::new();
    for (rel, lf) in &lexed {
        diags.extend(check_lexed(rel, lf));
    }

    // Cross-file: the workspace feature graph.
    diags.extend(features::check_feature_graph(&root));

    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));

    match format {
        Format::Json => print!("{}", report::to_json(&diags, scanned)),
        Format::Text => {
            for d in &diags {
                println!("{d}");
            }
            if diags.is_empty() {
                if !quiet {
                    println!(
                        "simcheck: {scanned} files clean ({} rules, feature \
                         graph verified)",
                        RULES.len()
                    );
                }
            } else {
                println!("simcheck: {} violation(s) in {scanned} files", diags.len());
            }
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Lexes and checks a single source file: token rules + cfg symmetry,
/// then allow-marker suppression and hygiene. The fixture tests drive
/// the engine through this entry point.
#[cfg(test)]
pub fn check_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    let lf = LexedFile::lex(src);
    check_lexed(rel, &lf)
}

fn check_lexed(rel: &str, lf: &LexedFile) -> Vec<Diagnostic> {
    let mut raw = rules::scan(rel, lf);
    raw.extend(features::check_cfg_symmetry(rel, lf));
    apply_markers(rel, lf, raw)
}

/// Minimum alphanumeric characters of prose for a marker justification.
const MIN_JUSTIFICATION: usize = 10;

/// Applies `simaudit:allow` markers to `raw` findings and appends the
/// hygiene findings: unknown rule, unsuppressible rule, stale marker
/// (suppresses nothing), missing justification.
fn apply_markers(rel: &str, lf: &LexedFile, raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut used = vec![false; lf.markers.len()];
    let mut out = Vec::new();
    for d in raw {
        let marker = lf
            .markers
            .iter()
            .position(|m| m.rule == d.rule && (m.line == d.line || m.line + 1 == d.line));
        match marker {
            Some(i) if SUPPRESSIBLE.contains(&d.rule) => used[i] = true,
            _ => out.push(d),
        }
    }
    for (i, m) in lf.markers.iter().enumerate() {
        let hygiene = |message: String| Diagnostic {
            file: rel.to_string(),
            line: m.line,
            rule: "allow-hygiene",
            message,
        };
        if !RULES.contains(&m.rule.as_str()) {
            out.push(hygiene(format!(
                "allow marker names unknown rule `{}`; see docs/STATIC_ANALYSIS.md \
                 for the catalogue",
                m.rule
            )));
        } else if !SUPPRESSIBLE.contains(&m.rule.as_str()) {
            out.push(hygiene(format!(
                "rule `{}` is a structural contract and cannot be suppressed \
                 with an allow marker",
                m.rule
            )));
        } else if !used[i] {
            out.push(hygiene(format!(
                "stale allow marker: no `{}` finding fires on this or the next \
                 line — remove the marker",
                m.rule
            )));
        } else if m
            .justification
            .chars()
            .filter(|c| c.is_alphanumeric())
            .count()
            < MIN_JUSTIFICATION
        {
            out.push(hygiene(format!(
                "allow marker for `{}` carries no written justification; say \
                 why the site is sound (e.g. `// simaudit:allow({}): <reason>`)",
                m.rule, m.rule
            )));
        }
    }
    out
}

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/xtask, so the workspace root is one level up
    // from this crate's manifest.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask has a parent directory")
        .to_path_buf()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_at(diags: &[Diagnostic]) -> Vec<(&'static str, usize)> {
        diags.iter().map(|d| (d.rule, d.line)).collect()
    }

    // ---------------- original five rules, token-aware ----------------

    #[test]
    fn fixture_no_wall_clock_fires() {
        let src = include_str!("../fixtures/no_wall_clock.rs");
        let diags = check_source("crates/desim/src/fixture.rs", src);
        assert_eq!(
            rules_at(&diags),
            vec![("no-wall-clock", 3), ("no-wall-clock", 4)],
            "{diags:#?}"
        );
    }

    #[test]
    fn fixture_no_unordered_iteration_fires() {
        let src = include_str!("../fixtures/no_unordered_iteration.rs");
        let diags = check_source("crates/snic/src/fixture.rs", src);
        assert_eq!(
            rules_at(&diags),
            vec![("no-unordered-iteration", 3), ("no-unordered-iteration", 4)],
            "{diags:#?}"
        );
    }

    #[test]
    fn fixture_no_raw_time_math_fires() {
        let src = include_str!("../fixtures/no_raw_time_math.rs");
        let diags = check_source("crates/netsim/src/fixture.rs", src);
        assert_eq!(
            rules_at(&diags),
            vec![("no-raw-time-math", 5), ("no-raw-time-math", 9)],
            "{diags:#?}"
        );
    }

    #[test]
    fn fixture_no_foreign_rng_fires() {
        let src = include_str!("../fixtures/no_foreign_rng.rs");
        let diags = check_source("crates/sparse/src/fixture.rs", src);
        assert_eq!(
            rules_at(&diags),
            vec![
                ("no-foreign-rng", 3),
                ("no-foreign-rng", 6),
                ("no-foreign-rng", 7)
            ],
            "{diags:#?}"
        );
    }

    #[test]
    fn fixture_no_unwrap_in_hot_path_fires() {
        let src = include_str!("../fixtures/no_unwrap_in_hot_path.rs");
        let diags = check_source("crates/switch/src/fixture.rs", src);
        assert_eq!(
            rules_at(&diags),
            vec![("no-unwrap-in-hot-path", 4)],
            "{diags:#?}"
        );
    }

    #[test]
    fn rules_are_path_scoped() {
        // The unordered-iteration fixture is clean outside event paths —
        // but its allow marker then becomes stale (hygiene still fires).
        let src = include_str!("../fixtures/no_unordered_iteration.rs");
        let diags = check_source("crates/sparse/src/fixture.rs", src);
        assert_eq!(rules_at(&diags), vec![("allow-hygiene", 8)], "{diags:#?}");
        // Nothing outside crates/ is policed by the path-scoped rules.
        let src = "let t = std::time::Instant::now();";
        assert!(check_source("tests/something.rs", src).is_empty());
    }

    #[test]
    fn componentized_sim_files_are_event_path() {
        // The pre-refactor scanner still pointed at crates/core/src/sim.rs;
        // the sim/ component files must be in scope now.
        let src = "pub fn hot() { let m: std::collections::HashMap<u32, u32> = Default::default(); let _ = m; }";
        let diags = check_source("crates/core/src/sim/node.rs", src);
        assert_eq!(rules_at(&diags), vec![("no-unordered-iteration", 1)]);
    }

    // ---------------- lexer-powered robustness ----------------

    #[test]
    fn comments_and_literals_do_not_trigger_rules() {
        let src = "// HashMap iteration would be nondeterministic here\nlet x = 1;";
        assert!(check_source("crates/snic/src/x.rs", src).is_empty());
        let src = "/// Unlike `rand`, SplitMix64 is in-tree.\npub struct S;";
        assert!(check_source("crates/sparse/src/x.rs", src).is_empty());
        // Identifiers inside string and raw-string literals are inert —
        // the line-regex scanner could not tell these apart.
        let src = "let s = \"uses HashMap and rand\"; let r = r#\"Instant::now() // .unwrap()\"#;";
        assert!(check_source("crates/snic/src/x.rs", src).is_empty());
        // A '"' char literal must not open a string and hide what follows.
        let src = "let q = '\"'; let t = std::time::Instant::now();";
        assert_eq!(
            rules_at(&check_source("crates/desim/src/x.rs", src)),
            vec![("no-wall-clock", 1)]
        );
    }

    #[test]
    fn unwrap_matching_is_exact() {
        // `.unwrap_or(...)` and `.expect_err(...)`-style idents must not
        // match; the old substring scanner got this right only for
        // unwrap_or by luck of the parenthesis.
        let src = "pub fn hot(x: Option<u32>) -> u32 { x.unwrap_or(0) }";
        assert!(check_source("crates/switch/src/x.rs", src).is_empty());
        let src = "pub fn hot(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(
            rules_at(&check_source("crates/switch/src/x.rs", src)),
            vec![("no-unwrap-in-hot-path", 1)]
        );
    }

    #[test]
    fn test_items_may_use_hash_containers() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let mut s = std::collections::HashSet::new(); s.insert(1); }\n}\nfn hot() { let _m: std::collections::HashMap<u32, u32> = Default::default(); }";
        let diags = check_source("crates/snic/src/x.rs", src);
        assert_eq!(rules_at(&diags), vec![("no-unordered-iteration", 5)]);
    }

    // ---------------- allow markers + hygiene ----------------

    #[test]
    fn allow_marker_suppresses_same_and_previous_line() {
        let same = "let t = Instant::now(); // simaudit:allow(no-wall-clock): host-side CLI timing";
        assert!(check_source("crates/desim/src/x.rs", same).is_empty());
        let prev = "// simaudit:allow(no-wall-clock): host profiling only\nlet t = Instant::now();";
        assert!(check_source("crates/desim/src/x.rs", prev).is_empty());
        // The marker names a specific rule; others still fire (and the
        // marker itself is then stale).
        let wrong = "let t = Instant::now(); // simaudit:allow(no-foreign-rng): wrong rule here";
        let diags = check_source("crates/desim/src/x.rs", wrong);
        assert_eq!(
            rules_at(&diags),
            vec![("no-wall-clock", 1), ("allow-hygiene", 1)],
            "{diags:#?}"
        );
    }

    #[test]
    fn bare_marker_without_justification_is_flagged() {
        let src = "let t = Instant::now(); // simaudit:allow(no-wall-clock)";
        let diags = check_source("crates/desim/src/x.rs", src);
        assert_eq!(rules_at(&diags), vec![("allow-hygiene", 1)], "{diags:#?}");
        assert!(diags[0].message.contains("justification"), "{}", diags[0]);
    }

    #[test]
    fn stale_marker_is_flagged() {
        let src = "// simaudit:allow(no-wall-clock): nothing here needs this\nlet x = 1;";
        let diags = check_source("crates/desim/src/x.rs", src);
        assert_eq!(rules_at(&diags), vec![("allow-hygiene", 1)]);
        assert!(diags[0].message.contains("stale"), "{}", diags[0]);
    }

    #[test]
    fn unknown_rule_marker_is_flagged() {
        let src = "let x = 1; // simaudit:allow(no-such-rule): typo in the rule name";
        let diags = check_source("crates/desim/src/x.rs", src);
        assert_eq!(rules_at(&diags), vec![("allow-hygiene", 1)]);
        assert!(diags[0].message.contains("unknown rule"), "{}", diags[0]);
    }

    // ---------------- no-hot-alloc ----------------

    #[test]
    fn fixture_no_hot_alloc_fires() {
        let src = include_str!("../fixtures/no_hot_alloc.rs");
        let diags = check_source("crates/snic/src/fixture.rs", src);
        assert_eq!(
            rules_at(&diags),
            vec![
                ("no-hot-alloc", 4),
                ("no-hot-alloc", 5),
                ("no-hot-alloc", 6),
                ("no-hot-alloc", 7),
                ("no-hot-alloc", 8),
                ("no-hot-alloc", 9),
            ],
            "{diags:#?}"
        );
        // Outside the hot path the same file is clean apart from the
        // then-stale allow marker.
        let diags = check_source("crates/hwmodel/src/fixture.rs", src);
        assert_eq!(rules_at(&diags), vec![("allow-hygiene", 21)], "{diags:#?}");
    }

    // ---------------- no-debug-print ----------------

    #[test]
    fn fixture_no_debug_print_fires() {
        let src = include_str!("../fixtures/no_debug_print.rs");
        let diags = check_source("crates/desim/src/fixture.rs", src);
        assert_eq!(
            rules_at(&diags),
            vec![
                ("no-debug-print", 4),
                ("no-debug-print", 5),
                ("no-debug-print", 6),
            ],
            "{diags:#?}"
        );
        // Binaries own their stdout — only the now-stale marker reports.
        let diags = check_source("crates/bench/src/bin/fixture.rs", src);
        assert_eq!(rules_at(&diags), vec![("allow-hygiene", 10)], "{diags:#?}");
    }

    // ---------------- no-lib-panic ----------------

    #[test]
    fn fixture_no_lib_panic_fires() {
        let src = include_str!("../fixtures/no_lib_panic.rs");
        let diags = check_source("crates/core/src/fixture.rs", src);
        assert_eq!(
            rules_at(&diags),
            vec![
                ("no-lib-panic", 4),
                ("no-lib-panic", 8),
                ("no-lib-panic", 12),
                ("no-lib-panic", 18),
            ],
            "{diags:#?}"
        );
    }

    #[test]
    fn no_lib_panic_exempts_bins_and_tests() {
        let src = include_str!("../fixtures/no_lib_panic.rs");
        // Binaries own their own failure policy — only the now-stale
        // marker reports.
        let diags = check_source("crates/bench/src/bin/fixture.rs", src);
        assert_eq!(rules_at(&diags), vec![("allow-hygiene", 23)], "{diags:#?}");
        // The `#[cfg(test)]` panic inside the fixture never fires in
        // either scope (covered by fixture_no_lib_panic_fires above for
        // the library case).
    }

    #[test]
    fn no_lib_panic_marker_requires_justification() {
        let src =
            "pub fn f() {\n    // simaudit:allow(no-lib-panic): x\n    panic!(\"boom\");\n}\n";
        let diags = check_source("crates/core/src/fixture.rs", src);
        // A bare/underspecified justification is an allow-hygiene error,
        // and the finding itself still reports.
        assert!(
            diags.iter().any(|d| d.rule == "allow-hygiene"),
            "{diags:#?}"
        );
    }

    // ---------------- feature-gate symmetry ----------------

    #[test]
    fn fixture_feature_symmetry_is_clean_with_stub() {
        let src = include_str!("../fixtures/feature_symmetry.rs");
        assert!(check_source("crates/snic/src/fixture.rs", src).is_empty());
    }

    #[test]
    fn deleting_the_not_stub_fails_symmetry() {
        let src = include_str!("../fixtures/feature_symmetry.rs");
        // Remove the `#[cfg(not(feature = "trace"))]` stub item.
        let without: String = src
            .lines()
            .filter(|l| !l.contains("not(feature") && !l.contains("fn record_flush(_prs"))
            .collect::<Vec<_>>()
            .join("\n");
        let diags = check_source("crates/snic/src/fixture.rs", &without);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert_eq!(diags[0].rule, "feature-symmetry");
        assert!(diags[0].message.contains("record_flush"), "{}", diags[0]);
    }
}
