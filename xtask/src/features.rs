//! Feature-gate symmetry: the `audit`/`trace` zero-cost-when-off
//! contract, checked on both sides of the build.
//!
//! **Manifest side** (`feature-forwarding`): the runtime auditor and the
//! structured tracer only compile in when the feature is enabled *through
//! the whole dependency chain*. A crate that depends on a crate declaring
//! `audit`/`trace` but does not forward the feature silently strands the
//! gate: `cargo build --features audit` on the downstream crate compiles
//! the auditor out of its dependencies. This pass walks every workspace
//! manifest and requires each tracked feature to be declared and fully
//! forwarded (`dep/feature` for every dependency that declares it).
//!
//! **Source side** (`feature-symmetry`): an item defined only under
//! `#[cfg(feature = "...")]` but referenced from unconditional code needs
//! a matching `#[cfg(not(feature = "..."))]` zero-cost stub, or the
//! default build breaks the moment the call site is exercised. The check
//! is per-file and token-aware (definitions found by item keyword, uses
//! by identifier, cfg scopes from the lexer).

use crate::lexer::LexedFile;
use crate::report::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// The feature gates whose forwarding the manifest pass polices.
pub const TRACKED_FEATURES: &[&str] = &["audit", "trace"];

// ------------------------------------------------------------------
// Manifest side: the workspace feature graph
// ------------------------------------------------------------------

/// One parsed `Cargo.toml`, reduced to what the pass needs.
#[derive(Debug, Default)]
pub struct Manifest {
    /// Workspace-relative manifest path.
    pub rel: String,
    /// `package.name`.
    pub name: String,
    /// Feature name → (definition line, forwarded entries).
    pub features: BTreeMap<String, (usize, Vec<String>)>,
    /// Dependency keys from `[dependencies]` (workspace deps keep their
    /// package name as the key in this repo).
    pub deps: Vec<String>,
}

/// Minimal TOML-shape parser: sections, `name = "..."`, feature arrays
/// (possibly multi-line) and dependency keys. Enough for this
/// workspace's manifests; no general TOML semantics.
pub fn parse_manifest(rel: &str, content: &str) -> Manifest {
    let mut m = Manifest {
        rel: rel.to_string(),
        ..Manifest::default()
    };
    #[derive(PartialEq)]
    enum Section {
        Package,
        Features,
        Dependencies,
        Other,
    }
    let mut section = Section::Other;
    let mut lines = content.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = match line {
                "[package]" => Section::Package,
                "[features]" => Section::Features,
                "[dependencies]" => Section::Dependencies,
                _ => Section::Other,
            };
            continue;
        }
        let Some(eq) = line.find('=') else {
            continue;
        };
        let key = line[..eq].trim();
        let value = line[eq + 1..].trim();
        match section {
            Section::Package if key == "name" => {
                m.name = value.trim_matches('"').to_string();
            }
            Section::Features => {
                let mut entries = Vec::new();
                let mut buf = value.to_string();
                // Multi-line arrays: accumulate until the closing `]`.
                while !buf.contains(']') {
                    let Some((_, next)) = lines.next() else {
                        break;
                    };
                    buf.push(' ');
                    buf.push_str(next.split('#').next().unwrap_or("").trim());
                }
                let mut rest = buf.as_str();
                while let Some(q) = rest.find('"') {
                    let tail = &rest[q + 1..];
                    let Some(q2) = tail.find('"') else {
                        break;
                    };
                    entries.push(tail[..q2].to_string());
                    rest = &tail[q2 + 1..];
                }
                m.features.insert(key.to_string(), (idx + 1, entries));
            }
            Section::Dependencies => {
                // `netsparse-desim.workspace = true` / `dep = { ... }`.
                let dep = key.split('.').next().unwrap_or(key).trim();
                if !dep.is_empty() {
                    m.deps.push(dep.to_string());
                }
            }
            _ => {}
        }
    }
    m
}

/// Checks feature forwarding across `manifests` (keyed by package name).
pub fn check_forwarding(manifests: &BTreeMap<String, Manifest>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for m in manifests.values() {
        for &feat in TRACKED_FEATURES {
            let deps_with: Vec<&str> = m
                .deps
                .iter()
                .filter(|d| {
                    manifests
                        .get(d.as_str())
                        .is_some_and(|dm| dm.features.contains_key(feat))
                })
                .map(|d| d.as_str())
                .collect();
            if deps_with.is_empty() {
                continue;
            }
            match m.features.get(feat) {
                None => {
                    let wanted: Vec<String> = deps_with
                        .iter()
                        .map(|d| format!("\"{d}/{feat}\""))
                        .collect();
                    diags.push(Diagnostic {
                        file: m.rel.clone(),
                        line: 1,
                        rule: "feature-forwarding",
                        message: format!(
                            "crate `{}` does not declare feature `{feat}` but \
                             depends on crates that do ({}); add `{feat} = \
                             [{}]` so the gate forwards through the whole \
                             graph",
                            m.name,
                            deps_with.join(", "),
                            wanted.join(", "),
                        ),
                    });
                }
                Some((line, entries)) => {
                    let missing: Vec<String> = deps_with
                        .iter()
                        .filter(|d| !entries.iter().any(|e| e == &format!("{d}/{feat}")))
                        .map(|d| format!("\"{d}/{feat}\""))
                        .collect();
                    if !missing.is_empty() {
                        diags.push(Diagnostic {
                            file: m.rel.clone(),
                            line: *line,
                            rule: "feature-forwarding",
                            message: format!(
                                "feature `{feat}` of crate `{}` does not \
                                 forward to every dependency that declares \
                                 it; add {}",
                                m.name,
                                missing.join(", "),
                            ),
                        });
                    }
                }
            }
        }
    }
    diags
}

/// Loads and checks every workspace manifest that participates in the
/// simulation build (crates/*, tests, examples — not depless `xtask`).
pub fn check_feature_graph(root: &Path) -> Vec<Diagnostic> {
    let mut manifests = BTreeMap::new();
    let mut paths: Vec<std::path::PathBuf> = Vec::new();
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            paths.push(e.path().join("Cargo.toml"));
        }
    }
    paths.push(root.join("tests/Cargo.toml"));
    paths.push(root.join("examples/Cargo.toml"));
    paths.sort();
    for p in paths {
        let Ok(content) = fs::read_to_string(&p) else {
            continue;
        };
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        let m = parse_manifest(&rel, &content);
        if !m.name.is_empty() {
            manifests.insert(m.name.clone(), m);
        }
    }
    check_forwarding(&manifests)
}

// ------------------------------------------------------------------
// Source side: cfg-stub symmetry
// ------------------------------------------------------------------

/// Item keywords whose following identifier names a definition.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// Checks that feature-gated definitions used from unconditional code
/// have `#[cfg(not(feature = ...))]` twins. Per-file; suppressible with
/// `simaudit:allow(feature-symmetry)`.
pub fn check_cfg_symmetry(rel: &str, lf: &LexedFile) -> Vec<Diagnostic> {
    // name → set of (feature, polarity) gates seen on definitions of it,
    // plus the token indices and first lines of all definition sites.
    let mut gates: BTreeMap<String, BTreeSet<(String, bool)>> = BTreeMap::new();
    let mut def_lines: BTreeMap<String, usize> = BTreeMap::new();
    let mut def_tokens: BTreeSet<usize> = BTreeSet::new();

    fn note_def(
        lf: &LexedFile,
        name_tok: usize,
        gates: &mut BTreeMap<String, BTreeSet<(String, bool)>>,
        def_lines: &mut BTreeMap<String, usize>,
        def_tokens: &mut BTreeSet<usize>,
    ) {
        let name = lf.text(name_tok).to_string();
        def_tokens.insert(name_tok);
        def_lines
            .entry(name.clone())
            .or_insert(lf.tokens[name_tok].line);
        let entry = gates.entry(name).or_default();
        for (f, pol) in lf.gates(name_tok) {
            entry.insert((f.to_string(), pol));
        }
    }

    for i in 0..lf.tokens.len() {
        let Some(word) = lf.ident(i) else {
            continue;
        };
        if lf.tokens[i].in_attr {
            continue;
        }
        if ITEM_KEYWORDS.contains(&word) && lf.ident(i + 1).is_some() {
            // `fn(...)` type position has no name ident and is skipped.
            note_def(lf, i + 1, &mut gates, &mut def_lines, &mut def_tokens);
        }
        // A gated struct field: the identifier opens its own cfg scope
        // (scope differs from the previous token's) and is followed by a
        // single `:`.
        if i > 0
            && lf.tokens[i].scope != lf.tokens[i - 1].scope
            && !lf.gates(i).is_empty()
            && lf.is_punct(i + 1, b':')
            && !lf.is_punct(i + 2, b':')
        {
            note_def(lf, i, &mut gates, &mut def_lines, &mut def_tokens);
        }
    }

    let mut diags = Vec::new();
    let mut reported: BTreeSet<&str> = BTreeSet::new();
    for (name, gset) in &gates {
        // Features this name is positively gated on somewhere.
        for (feat, pol) in gset {
            if !pol {
                continue;
            }
            let has_stub = gset.iter().any(|(f, p)| f == feat && !*p);
            if has_stub {
                continue;
            }
            // An unconditional (w.r.t. this feature) use of the name?
            let use_line = (0..lf.tokens.len()).find_map(|i| {
                if def_tokens.contains(&i) || lf.tokens[i].in_attr {
                    return None;
                }
                if lf.ident(i) != Some(name.as_str()) {
                    return None;
                }
                if lf.gated_on(i, feat).is_none() {
                    Some(lf.tokens[i].line)
                } else {
                    None
                }
            });
            if let Some(uline) = use_line {
                if reported.insert(name.as_str()) {
                    diags.push(Diagnostic {
                        file: rel.to_string(),
                        line: *def_lines.get(name).unwrap_or(&1),
                        rule: "feature-symmetry",
                        message: format!(
                            "`{name}` is defined only under #[cfg(feature = \
                             \"{feat}\")] but referenced from unconditional \
                             code (line {uline}); add a #[cfg(not(feature = \
                             \"{feat}\"))] zero-cost stub or gate the use"
                        ),
                    });
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest_map(specs: &[(&str, &str)]) -> BTreeMap<String, Manifest> {
        specs
            .iter()
            .map(|(rel, content)| {
                let m = parse_manifest(rel, content);
                (m.name.clone(), m)
            })
            .collect()
    }

    #[test]
    fn parses_multiline_feature_arrays_and_dep_keys() {
        let m = parse_manifest(
            "crates/x/Cargo.toml",
            "[package]\nname = \"x\"\n[features]\naudit = [\n  \"a/audit\",\n  \"b/audit\",\n]\n[dependencies]\na.workspace = true\nb = { path = \"../b\" }\n",
        );
        assert_eq!(m.name, "x");
        assert_eq!(m.deps, vec!["a", "b"]);
        assert_eq!(
            m.features.get("audit").map(|(_, e)| e.clone()),
            Some(vec!["a/audit".to_string(), "b/audit".to_string()])
        );
    }

    #[test]
    fn missing_feature_declaration_is_flagged() {
        let ms = manifest_map(&[
            (
                "crates/a/Cargo.toml",
                "[package]\nname = \"a\"\n[features]\naudit = []\n",
            ),
            (
                "crates/b/Cargo.toml",
                "[package]\nname = \"b\"\n[dependencies]\na.workspace = true\n",
            ),
        ]);
        let diags = check_forwarding(&ms);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert_eq!(diags[0].rule, "feature-forwarding");
        assert!(diags[0]
            .message
            .contains("does not declare feature `audit`"));
    }

    #[test]
    fn partial_forwarding_is_flagged() {
        let ms = manifest_map(&[
            (
                "crates/a/Cargo.toml",
                "[package]\nname = \"a\"\n[features]\ntrace = []\n",
            ),
            (
                "crates/b/Cargo.toml",
                "[package]\nname = \"b\"\n[features]\ntrace = []\n",
            ),
            (
                "crates/c/Cargo.toml",
                "[package]\nname = \"c\"\n[features]\ntrace = [\"a/trace\"]\n[dependencies]\na.workspace = true\nb.workspace = true\n",
            ),
        ]);
        let diags = check_forwarding(&ms);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].message.contains("\"b/trace\""), "{}", diags[0]);
    }

    #[test]
    fn complete_forwarding_is_clean() {
        let ms = manifest_map(&[
            (
                "crates/a/Cargo.toml",
                "[package]\nname = \"a\"\n[features]\naudit = []\ntrace = []\n",
            ),
            (
                "crates/c/Cargo.toml",
                "[package]\nname = \"c\"\n[features]\naudit = [\"a/audit\"]\ntrace = [\"a/trace\"]\n[dependencies]\na.workspace = true\n",
            ),
        ]);
        assert!(check_forwarding(&ms).is_empty());
    }
}
