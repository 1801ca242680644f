//! The command lines the documentation tells a reader to run name things
//! that exist: every `--example X` an `examples/X.rs`, every `-p P` a
//! workspace package, and every `xp <id>` an experiment or a subcommand
//! `xp` dispatches on. Only fenced `bash`/`sh` blocks are read.

use kfac_suite::harness::experiments::{ALL_EXPERIMENTS, SUBCOMMANDS};
use std::path::Path;

const DOCS: &[&str] = &["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"];

/// `(file, line number, command)` for every line of a shell block, with
/// `\`-continued lines joined and `# …` comments dropped.
fn shell_lines(root: &Path) -> Vec<(String, usize, String)> {
    let mut out = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("read doc");
        let (mut in_shell, mut in_fence, mut pending) = (false, false, None::<(usize, String)>);
        for (i, line) in text.lines().enumerate() {
            if let Some(info) = line.trim_start().strip_prefix("```") {
                in_shell = !in_fence && matches!(info.trim(), "bash" | "sh" | "shell");
                in_fence = !in_fence;
                continue;
            }
            if !in_shell {
                continue;
            }
            let code = match line.find(" #") {
                Some(at) => &line[..at],
                None if line.trim_start().starts_with('#') => "",
                None => line,
            };
            let (n, mut joined) = pending.take().unwrap_or((i + 1, String::new()));
            match code.trim_end().strip_suffix('\\') {
                Some(head) => {
                    joined.push_str(head);
                    pending = Some((n, joined));
                }
                None => {
                    joined.push_str(code);
                    out.push((doc.to_string(), n, joined.trim().to_string()));
                }
            }
        }
    }
    out
}

/// Package names of the root manifest's `members` globs plus the root.
fn workspace_packages(root: &Path) -> Vec<String> {
    let name_of = |manifest: &Path| {
        let text = std::fs::read_to_string(manifest).expect("read Cargo.toml");
        let name = text.lines().find_map(|l| l.strip_prefix("name = "))?;
        Some(name.trim_matches('"').to_string())
    };
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    let members = root_manifest
        .lines()
        .find_map(|l| l.strip_prefix("members = "))
        .expect("workspace members");
    let mut packages: Vec<String> = name_of(&root.join("Cargo.toml")).into_iter().collect();
    for glob in members.split('"').filter_map(|g| g.strip_suffix("/*")) {
        for entry in std::fs::read_dir(root.join(glob)).expect("member dir") {
            packages.extend(name_of(&entry.unwrap().path().join("Cargo.toml")));
        }
    }
    packages
}

#[test]
fn documented_commands_name_what_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let packages = workspace_packages(root);
    let mut errors = Vec::new();
    let mut checked = [0usize; 3];
    for (doc, n, line) in shell_lines(root) {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        for (i, &token) in tokens.iter().enumerate() {
            let next = tokens.get(i + 1).copied().unwrap_or("");
            if token == "--example" {
                checked[0] += 1;
                if !root.join("examples").join(format!("{next}.rs")).exists() {
                    errors.push(format!("{doc}:{n}: no examples/{next}.rs: {line}"));
                }
            } else if token == "-p" || token == "--package" {
                checked[1] += 1;
                if !packages.iter().any(|p| p == next) {
                    errors.push(format!("{doc}:{n}: no workspace package {next}: {line}"));
                }
            } else if token == "xp" || token.ends_with("/xp") {
                // `xp <id>`, or `--bin xp -- <id>`; `$e` and flags are not ids.
                let id = tokens.get(i + 1 + usize::from(next == "--"));
                let Some(&id) = id.filter(|id| id.starts_with(|c: char| c.is_ascii_alphanumeric()))
                else {
                    continue;
                };
                checked[2] += 1;
                if !ALL_EXPERIMENTS.contains(&id) && !SUBCOMMANDS.contains(&id) {
                    errors.push(format!("{doc}:{n}: xp has no `{id}`: {line}"));
                }
            }
        }
    }
    assert!(errors.is_empty(), "{}", errors.join("\n"));
    assert!(
        checked.iter().all(|&c| c > 0),
        "the docs' shell blocks lost their --example / -p / xp lines: {checked:?}"
    );
}
