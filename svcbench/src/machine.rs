//! The machine record every result carries, so numbers taken on different
//! hardware, toolchains or sources are never compared silently.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Where and on what a result was taken.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Logical CPUs listed in `/proc/cpuinfo`.
    pub cores: usize,
    /// `std::thread::available_parallelism` (CPU quota or affinity aware).
    pub available_parallelism: usize,
    /// OS, architecture and kernel release.
    pub platform: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or a hash of the source tree outside git.
    pub commit: String,
}

impl Machine {
    /// Probes the current machine; `root` is the repository checkout.
    pub fn probe(root: &Path) -> Machine {
        let cores = std::fs::read_to_string("/proc/cpuinfo")
            .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
            .unwrap_or(0);
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Machine {
            cores,
            available_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            platform: format!(
                "{}-{} kernel {kernel}",
                std::env::consts::OS,
                std::env::consts::ARCH
            ),
            rustc: output_of(
                &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()),
                &["--version"],
                root,
            )
            .unwrap_or_else(|| "unknown".into()),
            commit: output_of("git", &["rev-parse", "HEAD"], root)
                .unwrap_or_else(|| format!("tree-fnv:{:016x}", tree_hash(root))),
        }
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"available_parallelism\": {}, \"platform\": {}, \"rustc\": {}, \"commit\": {}}}",
            self.cores,
            self.available_parallelism,
            json_str(&self.platform),
            json_str(&self.rustc),
            json_str(&self.commit)
        )
    }
}

fn output_of(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !text.is_empty()).then_some(text)
}

/// FNV-1a over the paths and contents of the sources the benchmark builds
/// from, in sorted order: identical trees hash identically.
fn tree_hash(root: &Path) -> u64 {
    let mut files = Vec::new();
    for entry in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "src",
        "vendor",
        "svcbench",
    ] {
        collect(&root.join(entry), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        feed(
            f.strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        feed(&std::fs::read(&f).unwrap_or_default());
    }
    h
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(dir) = std::fs::read_dir(path) {
        for entry in dir.flatten() {
            let p = entry.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&p, out);
        }
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_names_the_machine() {
        let m = Machine::probe(Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap());
        assert!(m.available_parallelism >= 1);
        assert!(m.platform.contains(std::env::consts::ARCH));
        assert!(!m.commit.is_empty());
        let json = m.to_json();
        for key in [
            "cores",
            "available_parallelism",
            "platform",
            "rustc",
            "commit",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "{json}");
        }
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
