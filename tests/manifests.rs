//! Workspace manifest rules, read from `cargo metadata`.
//!
//! - Every package is a path package. Nothing comes from a registry or a
//!   git repository, so no outside source of randomness (or of anything
//!   else) enters the build; runs draw only from `netsparse_desim::rng`.
//! - The `audit` gate reaches every crate that declares it. A package
//!   with a normal dependency on a crate that declares it must declare it
//!   too and forward `dep/audit` to every such dependency. An unforwarded
//!   gate compiles the auditor out of part of the dependency chain,
//!   silently.
//! - Every `trace` feature is empty. The tracer is compiled into every
//!   build and attached per run; the empty features remain only because
//!   the benchmark's manifest names them (ROADMAP item 5).

use std::process::Command;

use netsparse_tests::json::{self, Value};

/// The feature gate that must be forwarded through the dependency graph.
const FORWARDED: &str = "audit";

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
    let declares = |name: &str| {
        packages
            .iter()
            .any(|p| p.get("name").str() == name && p.get("features").obj().contains_key(FORWARDED))
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
            if !declares(dep) {
                continue;
            }
            let entry = format!("{dep}/{FORWARDED}");
            match features.get(FORWARDED) {
                None => gaps.push(format!(
                    "{name}: declares no {FORWARDED} feature, but its dependency {dep} does"
                )),
                Some(list) if !list.arr().iter().any(|e| e.str() == entry) => {
                    gaps.push(format!("{name}: {FORWARDED} does not forward {entry}"));
                }
                Some(_) => {}
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
fn audit_reaches_every_crate_that_declares_it() {
    let gaps = forwarding_gaps(&workspace_packages());
    assert!(gaps.is_empty(), "{gaps:#?}");
}

#[test]
fn every_trace_feature_is_empty() {
    let packages = workspace_packages();
    let gated: Vec<&str> = packages
        .iter()
        .filter(|p| {
            p.get("features")
                .obj()
                .get("trace")
                .is_some_and(|list| !list.arr().is_empty())
        })
        .map(|p| p.get("name").str())
        .collect();
    assert!(
        gated.is_empty(),
        "trace features that enable something: {gated:?}"
    );
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
            {"name": "a", "features": {"audit": []}, "dependencies": []},
            {"name": "b", "features": {"audit": []}, "dependencies": []},
            {"name": "c", "features": {"audit": ["a/audit"]}, "dependencies": [
                {"name": "a", "kind": null},
                {"name": "b", "kind": null}
            ]}
        ]}"#,
    );
    assert_eq!(gaps, ["c: audit does not forward b/audit"]);
}

#[test]
fn complete_forwarding_is_clean() {
    let gaps = gaps_in(
        r#"{"packages": [
            {"name": "a", "features": {"audit": []}, "dependencies": []},
            {"name": "c", "features": {"audit": ["a/audit"]}, "dependencies": [
                {"name": "a", "kind": null},
                {"name": "d", "kind": "dev"}
            ]},
            {"name": "d", "features": {"audit": []}, "dependencies": []}
        ]}"#,
    );
    assert!(gaps.is_empty(), "{gaps:#?}");
}
