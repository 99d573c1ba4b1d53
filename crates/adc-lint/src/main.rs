//! CLI for the workspace lint. `cargo run -p adc-lint -- --check` is
//! the CI gate; see DESIGN.md "Static analysis & invariants".

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
adc-lint — workspace invariant checks that rustc and clippy do not have

USAGE:
    adc-lint [OPTIONS]

OPTIONS:
    --root <DIR>    Workspace root (default: auto-detected from cwd)
    --check         Exit 1 when any finding survives suppression
    --json          Emit the machine-readable report instead of text
    --list-rules    Print the rule catalog and exit
    -h, --help      Show this help
";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut check = false;
    let mut json = false;
    let mut list_rules = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --root requires a directory\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--check" => check = true,
            "--json" => json = true,
            "--list-rules" => list_rules = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    if list_rules {
        println!("{:<15} {:<8} summary", "rule", "severity");
        for r in adc_lint::rules::RULES {
            println!("{:<15} {:<8} {}", r.id, r.severity.label(), r.summary);
            println!("{:<24} scope: {}", "", r.scope);
        }
        return ExitCode::SUCCESS;
    }

    let root = match root.or_else(find_root) {
        Some(root) => root,
        None => {
            eprintln!(
                "error: could not find a workspace root (a directory containing `crates/`); \
                 pass --root"
            );
            return ExitCode::from(2);
        }
    };

    let report = match adc_lint::run(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", adc_lint::render_json(&report));
    } else {
        print!("{}", adc_lint::render_human(&report));
    }

    if check && !report.is_clean() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Walks up from the current directory to the first ancestor holding a
/// `crates/` directory next to a `Cargo.toml` (the workspace root, both
/// when invoked from the root and from inside a crate).
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
