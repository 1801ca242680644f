//! The architecture's structural rules, as one table read by one scanner:
//! one reader of the environment, one `try_step` call site, one K-FAC
//! plan, one f32 wire, one f32 GEMM engine, and the names that must stay
//! gone.
//!
//! A row of [`RULES`] names its scope (globs relative to the repository
//! root, read as each file's non-test part, as the whole file, or as a
//! manifest's dependency tables), the strings whose lines it looks for,
//! where such a line is allowed, and why the rule holds. To add a rule,
//! add a row, then put the name back in a scratch copy of the tree once
//! and see `every_rule_holds` fail on it.

use std::path::Path;

/// Which part of a file a rule reads.
#[derive(Clone, Copy)]
enum Part {
    /// The file up to its first top-level `#[cfg(test)]` ([`non_test`]).
    NonTest,
    /// Every line.
    Whole,
    /// The entries of a Cargo manifest's `[*dependencies*]` tables.
    Dependencies,
}

/// Where a rule's pattern may match.
enum Allowed {
    /// On no line.
    Absent,
    /// On exactly this many lines.
    Count(usize),
    /// Only at these sites; a line goes to the first site it fits.
    Sites(&'static [Site]),
    /// On exactly one line, inside the `fn` of this name.
    InFn(&'static str),
}

/// `Site(file, holds, count)`: the lines of `file` that also hold `holds`
/// ("" = any line), exactly `count` of them when `Some`, any number when
/// `None`.
struct Site(&'static str, &'static str, Option<usize>);

struct Rule {
    /// What the rule keeps, as a failure names it.
    name: &'static str,
    /// Globs relative to the repository root: `*` within a path segment,
    /// `**` for any number of segments.
    scope: &'static [&'static str],
    part: Part,
    /// A line matches if it holds any of these ("" matches every line).
    pattern: &'static [&'static str],
    allowed: Allowed,
    /// Why the rule holds: the design it keeps, or what was deleted.
    why: &'static str,
}

const SRC: &[&str] = &["crates/*/src/**/*.rs"];
const CRATES: &[&str] = &["crates/**"];
const HARNESS: &[&str] = &["crates/harness/src/**/*.rs"];
const PRECONDITIONER: &[&str] = &["crates/core/src/preconditioner.rs"];

const ENV: &str = "only runtime.rs reads the environment";
const TRY_STEP: &str = "one try_step call site";
const GRADIENT: &str = "one gradient bucket reducer";
const TRAIN_ITERATION: &str = "train_iteration called by the ladder and overlap_iteration only";
const EXEC_DEPS: &str = "kfac-exec is dependency-free";

const RULES: &[Rule] = &[
    Rule {
        name: ENV,
        scope: SRC,
        part: Part::NonTest,
        pattern: &["env::var"],
        allowed: Allowed::Sites(&[
            Site("crates/harness/src/runtime.rs", "", None),
            Site("crates/collectives/src/algo.rs", "\"KFAC_COMM_ALGO\"", None),
        ]),
        why: "one reader of the environment, kfac_harness::runtime; AlgoPolicy::from_env's \
              read of KFAC_COMM_ALGO stays while frozen stepbench calls it, and retires with \
              ROADMAP's `stepbench` re-baseline",
    },
    Rule {
        name: "no variable sets the eigensolver or the wire precision",
        scope: SRC,
        part: Part::NonTest,
        pattern: &["KFAC_EIG_BACKEND", "KFAC_PRECISION"],
        allowed: Allowed::Absent,
        why: "the eigensolver and the wire precision are KfacConfig fields set in code; \
              their variables were removed",
    },
    Rule {
        name: "no live metrics plane",
        scope: SRC,
        part: Part::NonTest,
        pattern: &[
            "MetricsServer",
            "Watchdog",
            "lint_prometheus",
            "serve-metrics",
            "prom-lint",
        ],
        allowed: Allowed::Absent,
        why: "the live metrics plane was deleted: a run answers from its artefacts",
    },
    Rule {
        name: "no bf16 wire",
        scope: SRC,
        part: Part::NonTest,
        pattern: &[
            "PrecisionPolicy::bf16",
            "encode_payload",
            "decode_payload",
            "comm/bytes/dtype",
        ],
        allowed: Allowed::Absent,
        why: "the bf16 wire was deleted: every collective travels as f32",
    },
    Rule {
        name: "Dtype::Bf16 is a name of kfac_tensor::half alone",
        scope: SRC,
        part: Part::NonTest,
        pattern: &["Dtype::Bf16"],
        allowed: Allowed::Sites(&[Site("crates/tensor/src/half.rs", "", None)]),
        why: "bf16 is a storage format of kfac_tensor::half, not a wire",
    },
    Rule {
        name: "no bf16 operand path in the GEMM engine or the arena",
        scope: CRATES,
        part: Part::Whole,
        pattern: &["Element for u16", "take_u16", "widen_transpose_bf16"],
        allowed: Allowed::Absent,
        why: "the bf16 operand path was deleted: one f32 GEMM engine",
    },
    Rule {
        name: "the step and the simulator read the Plan, not DistStrategy",
        scope: &[
            "crates/core/src/preconditioner.rs",
            "crates/cluster/src/**/*.rs",
        ],
        part: Part::NonTest,
        pattern: &["DistStrategy"],
        allowed: Allowed::Absent,
        why: "K-FAC-opt and -lw are the two constructors of one distribution::Plan",
    },
    Rule {
        name: "assign_layers_lw stays gone",
        scope: CRATES,
        part: Part::Whole,
        pattern: &["assign_layers_lw"],
        allowed: Allowed::Absent,
        why: "Plan::lw places -lw's layers",
    },
    Rule {
        name: "FusionBuffer stays gone",
        scope: CRATES,
        part: Part::Whole,
        pattern: &["FusionBuffer"],
        allowed: Allowed::Absent,
        why: "the fused exchange is the whole model as one bucket",
    },
    Rule {
        name: GRADIENT,
        scope: HARNESS,
        part: Part::NonTest,
        pattern: &["TrafficClass::Gradient"],
        allowed: Allowed::InFn("reduce_bucket"),
        why: "both schedules average gradients through overlap::reduce_bucket",
    },
    Rule {
        name: "no K-FAC phase in overlap.rs",
        scope: &["crates/harness/src/overlap.rs"],
        part: Part::Whole,
        pattern: &[
            "factor_update_layer",
            "factor_pack",
            "factor_unpack",
            "eig_compute_one",
            "eig_local_payload",
            "eig_apply_gathered",
            "precondition_one",
            "apply_with_clip",
            ".advance(",
        ],
        allowed: Allowed::Absent,
        why: "the bucketed exchange overlaps backward and the gradient exchange only; \
              trainer::train_iteration composes the K-FAC step",
    },
    Rule {
        name: EXEC_DEPS,
        scope: &["crates/exec/Cargo.toml"],
        part: Part::Dependencies,
        // Any entry.
        pattern: &[""],
        allowed: Allowed::Absent,
        why: "kfac-exec is the ExecMode name frozen stepbench imports; the task-graph \
              scheduler stays gone",
    },
    Rule {
        name: TRY_STEP,
        scope: HARNESS,
        part: Part::NonTest,
        pattern: &["try_step("],
        allowed: Allowed::Count(1),
        why: "one composition of the iteration, trainer::train_iteration",
    },
    Rule {
        name: TRAIN_ITERATION,
        scope: HARNESS,
        part: Part::NonTest,
        pattern: &["train_iteration("],
        allowed: Allowed::Sites(&[
            Site(
                "crates/harness/src/trainer.rs",
                "fn train_iteration(",
                Some(1),
            ),
            Site("crates/harness/src/resilient.rs", "", Some(1)),
            Site("crates/harness/src/overlap.rs", "", Some(1)),
        ]),
        why: "one loop walks batches through the step: the ladder, which trainer::run_plan \
              steps, and overlap_iteration, the benchmark's entry",
    },
    Rule {
        name: "one square matrix built from an average",
        scope: PRECONDITIONER,
        part: Part::NonTest,
        pattern: &["mirror_upper_to_lower("],
        allowed: Allowed::Count(1),
        why: "averages stay packed upper triangles; only the decomposition mirrors one into \
              a square",
    },
    Rule {
        name: "no triangular_factor_comm switch",
        scope: PRECONDITIONER,
        part: Part::NonTest,
        pattern: &["triangular_factor_comm"],
        allowed: Allowed::Absent,
        why: "factors always travel as packed triangles",
    },
];

/// A source file's non-test part: its text up to the first top-level
/// `#[cfg(test)]`. An indented one gates a field or a statement, not the
/// test module, and does not end the part.
fn non_test(src: &str) -> &str {
    let mut at = 0;
    for line in src.split_inclusive('\n') {
        if line.starts_with("#[cfg(test)]") {
            return &src[..at];
        }
        at += line.len();
    }
    src
}

fn numbered(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().map(|(i, line)| (i + 1, line))
}

/// The numbered lines of `text` that `part` reads.
fn lines(part: Part, text: &str) -> Vec<(usize, &str)> {
    match part {
        Part::Whole => numbered(text).collect(),
        Part::NonTest => numbered(non_test(text)).collect(),
        Part::Dependencies => {
            let mut in_deps = false;
            numbered(text)
                .filter(|(_, line)| {
                    if line.starts_with('[') {
                        in_deps = line.contains("dependencies");
                        return false;
                    }
                    in_deps && !line.trim().is_empty() && !line.starts_with('#')
                })
                .collect()
        }
    }
}

/// The name after the leftmost `fn ` on a line: a hit belongs to the
/// `fn` most recently named above it (or on its own line).
fn fn_name(line: &str) -> Option<&str> {
    let mut rest = line;
    while let Some(at) = rest.find("fn ") {
        rest = &rest[at + 3..];
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        if end > 0 {
            return Some(&rest[..end]);
        }
    }
    None
}

/// `*` matches within one path segment.
fn segment_matches(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, tail)) => {
            name.starts_with(head)
                && (head.len()..=name.len())
                    .any(|i| name.is_char_boundary(i) && segment_matches(tail, &name[i..]))
        }
    }
}

fn glob_matches(pattern: &[&str], path: &[&str]) -> bool {
    match (pattern.split_first(), path.split_first()) {
        (None, None) => true,
        (Some((&"**", rest)), _) => {
            glob_matches(rest, path) || (!path.is_empty() && glob_matches(pattern, &path[1..]))
        }
        (Some((p, rest)), Some((name, tail))) => {
            segment_matches(p, name) && glob_matches(rest, tail)
        }
        _ => false,
    }
}

fn in_scope(glob: &str, file: &str) -> bool {
    let pattern: Vec<&str> = glob.split('/').collect();
    let path: Vec<&str> = file.split('/').collect();
    glob_matches(&pattern, &path)
}

struct Hit<'a> {
    file: &'a str,
    line: usize,
    text: &'a str,
    within: Option<&'a str>,
}

impl Hit<'_> {
    fn show(&self) -> String {
        format!("{}:{}: {}", self.file, self.line, self.text.trim())
    }
}

/// What `rule` finds wrong in `files` (path relative to the repository
/// root, contents); empty when it holds.
fn violations(rule: &Rule, files: &[(String, String)]) -> Vec<String> {
    let mut hits = Vec::new();
    for (file, text) in files {
        if !rule.scope.iter().any(|glob| in_scope(glob, file)) {
            continue;
        }
        let mut within = None;
        for (line, text) in lines(rule.part, text) {
            within = fn_name(text).or(within);
            if rule.pattern.iter().any(|p| text.contains(p)) {
                hits.push(Hit {
                    file,
                    line,
                    text,
                    within,
                });
            }
        }
    }
    let every = |head: String| {
        std::iter::once(head)
            .chain(hits.iter().map(Hit::show))
            .collect()
    };
    match rule.allowed {
        Allowed::Absent => hits.iter().map(Hit::show).collect(),
        Allowed::Count(n) if hits.len() == n => Vec::new(),
        Allowed::Count(n) => every(format!("{} matching lines, expected {n}:", hits.len())),
        Allowed::Sites(sites) => {
            let mut counts = vec![0; sites.len()];
            let mut out = Vec::new();
            for hit in &hits {
                let site = sites
                    .iter()
                    .position(|Site(file, holds, _)| *file == hit.file && hit.text.contains(holds));
                match site {
                    Some(i) => counts[i] += 1,
                    None => out.push(hit.show()),
                }
            }
            for (site, n) in sites.iter().zip(counts) {
                if let Some(want) = site.2.filter(|&want| want != n) {
                    out.push(format!("{n} matching lines in {}, expected {want}", site.0));
                }
            }
            out
        }
        Allowed::InFn(name) => match hits.as_slice() {
            [hit] if hit.within == Some(name) => Vec::new(),
            _ => std::iter::once(format!("expected one matching line, inside fn {name}:"))
                .chain(
                    hits.iter()
                        .map(|hit| format!("{} (in fn {})", hit.show(), hit.within.unwrap_or("?"))),
                )
                .collect(),
        },
    }
}

/// Every file under `dir`, as (path relative to `root` with `/`
/// separators, contents), sorted by path.
fn files_under(root: &Path, dir: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut todo = vec![root.join(dir)];
    while let Some(path) = todo.pop() {
        if path.is_dir() {
            for entry in std::fs::read_dir(&path).expect("read dir") {
                todo.push(entry.expect("dir entry").path());
            }
        } else {
            let rel = path.strip_prefix(root).expect("under root");
            let rel = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>();
            let bytes = std::fs::read(&path).expect("read file");
            out.push((rel.join("/"), String::from_utf8_lossy(&bytes).into_owned()));
        }
    }
    out.sort();
    out
}

fn repository_crates() -> Vec<(String, String)> {
    files_under(Path::new(env!("CARGO_MANIFEST_DIR")), "crates")
}

#[test]
fn every_rule_holds() {
    let files = repository_crates();
    let mut failures = Vec::new();
    for rule in RULES {
        let mut found = violations(rule, &files);
        for glob in rule.scope {
            if !files.iter().any(|(file, _)| in_scope(glob, file)) {
                found.push(format!("scope {glob} matches no file"));
            }
        }
        if let Allowed::Sites(sites) = rule.allowed {
            for site in sites {
                if !files.iter().any(|(file, _)| file == site.0) {
                    found.push(format!("site {} does not exist", site.0));
                }
            }
        }
        if !found.is_empty() {
            failures.push(format!(
                "{} ({}):\n  {}",
                rule.name,
                rule.why,
                found.join("\n  ")
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// The cut is sound only while test code comes last: past the first
/// top-level `#[cfg(test)]`, every top-level line belongs to a
/// `#[cfg(test)]` module.
#[test]
fn no_code_hides_past_the_cut() {
    let mut hidden = Vec::new();
    for (file, text) in repository_crates() {
        if !in_scope(SRC[0], &file) {
            continue;
        }
        let (mut gated, start) = (false, non_test(&text).lines().count());
        for (i, line) in text.lines().enumerate().skip(start) {
            let item = !(line.is_empty() || line.starts_with([' ', '}', '/', '#']));
            if item && !(gated && line.split_whitespace().any(|word| word == "mod")) {
                hidden.push(format!("{file}:{}: {line}", i + 1));
            }
            gated = line.starts_with("#[cfg(test)]") || (gated && line.starts_with("#["));
        }
    }
    assert!(
        hidden.is_empty(),
        "top-level code after a test module:\n{}",
        hidden.join("\n")
    );
}

fn rule(name: &str) -> &'static Rule {
    RULES
        .iter()
        .find(|r| r.name == name)
        .expect("a row of RULES")
}

fn fixture(file: &str, text: &str) -> Vec<(String, String)> {
    vec![(file.to_string(), text.to_string())]
}

/// What the row `name` finds wrong in one file.
fn check(name: &str, file: &str, text: &str) -> Vec<String> {
    violations(rule(name), &fixture(file, text))
}

#[test]
fn a_hit_after_an_indented_cfg_test_field_is_reported() {
    let src = "\
pub struct Kfac {
    iteration: u64,
    #[cfg(test)]
    two_pass_fold: bool,
}

fn threads() -> String {
    std::env::var(\"KFAC_THREADS\").unwrap()
}

#[cfg(test)]
mod tests {}
";
    let found = check(ENV, "crates/core/src/preconditioner.rs", src);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        found[0].starts_with("crates/core/src/preconditioner.rs:8: "),
        "{found:?}"
    );
}

#[test]
fn a_hit_in_the_test_module_is_not_reported() {
    let src = "\
pub fn threads() -> usize {
    4
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads() {
        std::env::var(\"KFAC_THREADS\").unwrap_err();
    }
}
";
    assert!(check(ENV, "crates/core/src/preconditioner.rs", src).is_empty());
}

#[test]
fn a_count_rule_counts_its_sites() {
    let calls = |n: usize| {
        let body = "    k.try_step(model, comm, lr, &retry)?;\n".repeat(n);
        fixture(
            "crates/harness/src/trainer.rs",
            &format!("fn step() {{\n{body}}}\n"),
        )
    };
    assert!(violations(rule(TRY_STEP), &calls(1)).is_empty());
    for n in [0, 2] {
        let found = violations(rule(TRY_STEP), &calls(n));
        assert_eq!(found[0], format!("{n} matching lines, expected 1:"));
        assert_eq!(found.len(), 1 + n, "{found:?}");
    }
    // Outside the rule's scope, a call is not counted.
    let mut files = calls(1);
    files.extend(fixture(
        "crates/core/src/lib.rs",
        "    self.try_step(m, c, lr, r)\n",
    ));
    assert!(violations(rule(TRY_STEP), &files).is_empty());
}

#[test]
fn a_named_fn_rule_names_the_enclosing_fn() {
    let at = |name: &str| {
        let src = format!(
            "\
pub(crate) fn {name}(
    comm: &dyn Communicator,
) -> Result<(), CommError> {{
    let mut attempt = || {{
        comm.try_allreduce_tagged(&mut buf, ReduceOp::Average, TrafficClass::Gradient)
    }};
    attempt()
}}
"
        );
        check(GRADIENT, "crates/harness/src/overlap.rs", &src)
    };
    assert!(at("reduce_bucket").is_empty());
    let found = at("exchange_fused");
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found[1].ends_with("(in fn exchange_fused)"), "{found:?}");
}

#[test]
fn an_allowed_site_admits_only_its_lines() {
    let algo = |var: &str| format!("    let algo = match std::env::var(\"{var}\") {{\n");
    let at_algo = |var: &str| check(ENV, "crates/collectives/src/algo.rs", &algo(var));
    assert!(at_algo("KFAC_COMM_ALGO").is_empty());
    assert_eq!(at_algo("KFAC_COMM_BACKEND").len(), 1);
    assert!(check(
        ENV,
        "crates/harness/src/runtime.rs",
        "    std::env::vars_os()\n"
    )
    .is_empty());

    // Counted sites: the definition, and one call in each of two files.
    let mut files = fixture("crates/harness/src/trainer.rs", "pub fn train_iteration(\n");
    for file in ["resilient.rs", "overlap.rs"] {
        files.extend(fixture(
            &format!("crates/harness/src/{file}"),
            "    train_iteration(\n",
        ));
    }
    assert!(violations(rule(TRAIN_ITERATION), &files).is_empty());
    files[0].1.push_str("    train_iteration(\n");
    files[2].1.push_str("    train_iteration(\n");
    let found = violations(rule(TRAIN_ITERATION), &files);
    assert_eq!(
        found,
        [
            "crates/harness/src/trainer.rs:2: train_iteration(",
            "2 matching lines in crates/harness/src/overlap.rs, expected 1",
        ],
    );
}

#[test]
fn a_manifest_rule_reads_its_dependency_tables() {
    let manifest = "\
[package]
name = \"kfac-exec\"

[dependencies]
# none

[dev-dependencies]
proptest.workspace = true
";
    let found = check(EXEC_DEPS, "crates/exec/Cargo.toml", manifest);
    assert_eq!(
        found,
        ["crates/exec/Cargo.toml:8: proptest.workspace = true"]
    );
}

#[test]
fn globs_match_by_segment() {
    let src = |file: &str| in_scope(SRC[0], file);
    assert!(src("crates/harness/src/experiments/fig5.rs"));
    assert!(src("crates/core/src/lib.rs"));
    assert!(!src("crates/core/tests/properties.rs"));
    assert!(!src("crates/core/src/notes.md"));
    assert!(in_scope(CRATES[0], "crates/exec/Cargo.toml"));
}
