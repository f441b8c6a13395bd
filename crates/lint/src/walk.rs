//! Workspace discovery: find the root, enumerate the `.rs` files to lint.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github"];

/// Workspace-relative prefixes excluded from the scan. The lint's own
/// fixture corpus is *deliberately* full of violations.
const SKIP_PREFIXES: &[&str] = &["crates/lint/tests/fixtures/"];

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Enumerates every lintable `.rs` file under `root`, as
/// `(workspace-relative path with forward slashes, absolute path)`,
/// sorted by relative path so reports are deterministic.
pub fn workspace_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    collect(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            let rel = relative(root, &path);
            if SKIP_PREFIXES.iter().any(|p| format!("{rel}/").starts_with(p) || rel.starts_with(p))
            {
                continue;
            }
            collect(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = relative(root, &path);
            if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
                continue;
            }
            out.push((rel, path));
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_workspace() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above crates/lint");
        assert!(root.join("crates/bench/src/knobs.rs").exists());
    }

    #[test]
    fn enumerates_sorted_rs_files_and_skips_fixtures() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).unwrap();
        let files = workspace_files(&root).unwrap();
        assert!(files.iter().any(|(rel, _)| rel == "crates/sim/src/engine.rs"));
        assert!(files.iter().all(|(rel, _)| !rel.contains("lint/tests/fixtures")));
        assert!(files.iter().all(|(rel, _)| !rel.starts_with("target/")));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
    }
}
