//! Workspace manifest rules, read from `cargo metadata`.
//!
//! - Every package is a path package. Nothing comes from a registry or a
//!   git repository, so no outside source of randomness (or of anything
//!   else) enters the build; runs draw only from `netsparse_desim::rng`.
//! - The `audit` and `trace` gates reach every crate that declares them.
//!   A package with a normal dependency on a crate that declares one of
//!   them must declare it too and forward `dep/feature` to every such
//!   dependency. An unforwarded gate compiles the auditor or the tracer
//!   out of part of the dependency chain, silently.

use std::process::Command;

use netsparse_tests::json::{self, Value};

/// The feature gates that must be forwarded through the dependency graph.
const FORWARDED: &[&str] = &["audit", "trace"];

/// The `packages` array of this workspace's `cargo metadata`.
fn workspace_packages() -> Vec<Value> {
    let out = Command::new(env!("CARGO"))
        .args(["metadata", "--format-version", "1", "--offline"])
        .arg("--manifest-path")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
        .output()
        .expect("cargo metadata runs");
    assert!(
        out.status.success(),
        "cargo metadata failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("cargo metadata prints UTF-8");
    json::parse(&text).get("packages").arr().to_vec()
}

/// One line per forwarding rule that `packages` (as `cargo metadata`
/// lists them) break.
fn forwarding_gaps(packages: &[Value]) -> Vec<String> {
    let declares = |name: &str, feature: &str| {
        packages
            .iter()
            .any(|p| p.get("name").str() == name && p.get("features").obj().contains_key(feature))
    };
    let mut gaps = Vec::new();
    for p in packages {
        let name = p.get("name").str();
        let features = p.get("features").obj();
        let normal = p
            .get("dependencies")
            .arr()
            .iter()
            .filter(|d| d.get("kind") == &Value::Null);
        for dep in normal {
            let dep = dep.get("name").str();
            for &feature in FORWARDED.iter().filter(|&&f| declares(dep, f)) {
                let entry = format!("{dep}/{feature}");
                match features.get(feature) {
                    None => gaps.push(format!(
                        "{name}: declares no {feature} feature, but its dependency {dep} does"
                    )),
                    Some(list) if !list.arr().iter().any(|e| e.str() == entry) => {
                        gaps.push(format!("{name}: {feature} does not forward {entry}"));
                    }
                    Some(_) => {}
                }
            }
        }
    }
    gaps
}

/// Parses a synthetic `{"packages": [...]}` document and checks it.
fn gaps_in(doc: &str) -> Vec<String> {
    forwarding_gaps(json::parse(doc).get("packages").arr())
}

#[test]
fn every_package_is_a_path_package() {
    let packages = workspace_packages();
    assert!(
        packages.iter().any(|p| p.get("name").str() == "netsparse"),
        "the metadata lists the workspace's packages"
    );
    let foreign: Vec<&str> = packages
        .iter()
        .filter(|p| p.get("source") != &Value::Null)
        .map(|p| p.get("name").str())
        .collect();
    assert!(
        foreign.is_empty(),
        "packages from outside the workspace: {foreign:?}"
    );
}

#[test]
fn audit_and_trace_reach_every_crate_that_declares_them() {
    let gaps = forwarding_gaps(&workspace_packages());
    assert!(gaps.is_empty(), "{gaps:#?}");
}

#[test]
fn missing_feature_declaration_is_flagged() {
    let gaps = gaps_in(
        r#"{"packages": [
            {"name": "a", "features": {"audit": []}, "dependencies": []},
            {"name": "b", "features": {}, "dependencies": [{"name": "a", "kind": null}]}
        ]}"#,
    );
    assert_eq!(
        gaps,
        ["b: declares no audit feature, but its dependency a does"]
    );
}

#[test]
fn partial_forwarding_is_flagged() {
    let gaps = gaps_in(
        r#"{"packages": [
            {"name": "a", "features": {"trace": []}, "dependencies": []},
            {"name": "b", "features": {"trace": []}, "dependencies": []},
            {"name": "c", "features": {"trace": ["a/trace"]}, "dependencies": [
                {"name": "a", "kind": null},
                {"name": "b", "kind": null}
            ]}
        ]}"#,
    );
    assert_eq!(gaps, ["c: trace does not forward b/trace"]);
}

#[test]
fn complete_forwarding_is_clean() {
    let gaps = gaps_in(
        r#"{"packages": [
            {"name": "a", "features": {"audit": [], "trace": []}, "dependencies": []},
            {"name": "c", "features": {"audit": ["a/audit"], "trace": ["a/trace"]}, "dependencies": [
                {"name": "a", "kind": null},
                {"name": "d", "kind": "dev"}
            ]},
            {"name": "d", "features": {"audit": []}, "dependencies": []}
        ]}"#,
    );
    assert!(gaps.is_empty(), "{gaps:#?}");
}
