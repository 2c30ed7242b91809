//! Stamps the benchmark binary with what it measures: the rustc that
//! built it, the commit (when built inside a git checkout), and a digest
//! of the simulator sources, which identifies the code under test even
//! in an export that carries no git metadata.

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets it"));
    let root = manifest
        .parent()
        .expect("the benchmark lives inside the repository");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = command_output(Command::new(rustc).arg("--version"))
        .unwrap_or_else(|| "unknown".to_string());
    let commit = command_output(
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "HEAD"]),
    )
    .unwrap_or_else(|| "unknown".to_string());

    let mut files = Vec::new();
    collect(&root.join("crates"), &mut files);
    collect(&manifest.join("src"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        digest = fnv1a(digest, rel.to_string_lossy().as_bytes());
        digest = fnv1a(digest, &std::fs::read(file).unwrap_or_default());
    }

    println!("cargo:rustc-env=HOSTBENCH_RUSTC={version}");
    println!("cargo:rustc-env=HOSTBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=HOSTBENCH_SOURCE_DIGEST={digest:016x}");
    println!("cargo:rerun-if-changed={}", root.join("crates").display());
    println!(
        "cargo:rerun-if-changed={}",
        root.join("Cargo.lock").display()
    );
    println!("cargo:rerun-if-changed=src");
    // A new commit moves HEAD or the branch it names, whichever files the
    // commit touched: rebuild so the stamp names it.
    for file in git_head_files(root) {
        println!("cargo:rerun-if-changed={}", file.display());
    }
}

/// `HEAD`, the ref file it points to and `packed-refs`, those that exist.
fn git_head_files(root: &Path) -> Vec<PathBuf> {
    let Some(git_dir) = command_output(
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "--absolute-git-dir"]),
    ) else {
        return Vec::new();
    };
    let git_dir = PathBuf::from(git_dir);
    let head = git_dir.join("HEAD");
    let mut files = vec![git_dir.join("packed-refs")];
    if let Some(name) = std::fs::read_to_string(&head)
        .ok()
        .as_deref()
        .and_then(|h| h.trim().strip_prefix("ref: "))
    {
        files.push(git_dir.join(name));
    }
    files.push(head);
    files.retain(|f| f.is_file());
    files
}

fn command_output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

/// Every `.rs` and `Cargo.toml` file under `dir`, skipping build output.
fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
