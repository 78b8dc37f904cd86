//! End-to-end checks of the `hwdbg` command-line front end.

use std::process::{Command, Output};

fn hwdbg(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hwdbg"))
        .args(args)
        .output()
        .expect("failed to launch hwdbg")
}

/// Reads an unsigned integer field out of `hwdbg profile --json` output.
fn json_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let start = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no `{key}` in {json}"))
        + pat.len();
    let digits: String = json[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("`{key}` is not a number in {json}"))
}

/// The LossCheck and Statistics Monitor reruns inside `profile` drive the
/// bug's own workload, so on a loss bug both tools observe activity.
#[test]
fn profile_reruns_loss_tools_under_the_bug_workload() {
    let out = hwdbg(&["profile", "d2", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"outcome\": \"fail (Stuck)\""), "{json}");
    assert!(json_u64(&json, "stat_events") > 0, "{json}");
    assert!(json_u64(&json, "shadow_updates") > 0, "{json}");
}

#[test]
fn sim_accepts_only_tree_and_levelized_backends() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_backend_counter.v");
    std::fs::write(
        &path,
        "module counter(input clk, output reg [3:0] q);
           always @(posedge clk) q <= q + 4'd1;
         endmodule",
    )
    .expect("write test design");
    let file = path.to_str().expect("utf-8 temp path");
    for backend in ["tree", "levelized"] {
        let out = hwdbg(&["sim", file, "--cycles", "5", "--backend", backend]);
        assert!(
            out.status.success(),
            "{backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let out = hwdbg(&["sim", file, "--cycles", "5", "--backend", "bytecode"]);
    assert!(
        !out.status.success(),
        "`--backend bytecode` must be rejected"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown backend `bytecode` (tree|levelized)"),
        "{stderr}"
    );
}

/// Lint codes on `--allow/--warn/--deny` match in any letter case: D2 fires
/// L0501, so denying it as `l0501` makes the command fail.
#[test]
fn lint_level_flags_accept_lowercase_codes() {
    let out = hwdbg(&["lint", "d2", "--deny", "l0501"]);
    assert!(
        !out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("L0501"), "{stdout}");
}

/// A level flag naming a code no pass emits is an error, not a silent no-op.
#[test]
fn lint_level_flags_reject_unknown_codes() {
    for list in ["L9999", "l0101,L9999"] {
        let out = hwdbg(&["lint", "d2", "--deny", list]);
        assert_eq!(out.status.code(), Some(1), "--deny {list}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown lint code `L9999`"), "{stderr}");
    }
}
