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

/// Writes a design into the test scratch directory and returns its path.
fn design_file(name: &str, src: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, src).expect("write test design");
    path.to_str().expect("utf-8 temp path").to_owned()
}

/// A counter clocked by `clock`: a design with no signal named `clk`.
const CLOCK_COUNTER: &str = "module counter(input clock, output reg [3:0] q);
       always @(posedge clock) q <= q + 4'd1;
     endmodule";

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

/// `profile` instruments the Dependency Monitor and re-simulates it like
/// every other tool, and reports the cycles the bug's workload ran.
#[test]
fn profile_runs_depmon_and_reports_workload_cycles() {
    use hwdbg::testbed::{buggy_design, simulator, workloads, BugId};
    let out = hwdbg(&["profile", "d2", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json_u64(&json, "dep_updates") > 0, "{json}");
    let mut sim = simulator(buggy_design(BugId::D2).unwrap()).unwrap();
    workloads::run(BugId::D2, &mut sim).unwrap();
    assert_eq!(json_u64(&json, "cycles"), sim.cycle("clk"), "{json}");
}

/// `sim` and `faults` drive the design's own clock when none is named, and
/// reject a `--clock` that names no signal instead of ticking nothing.
#[test]
fn runs_default_to_the_design_clock_and_reject_unknown_clocks() {
    let file = design_file("cli_clock_counter.v", CLOCK_COUNTER);
    let out = hwdbg(&["sim", &file, "--cycles", "5", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"clock\": \"clock\""), "{json}");
    assert_eq!(json_u64(&json, "cycles"), 5, "{json}");

    let plan = design_file("cli_clock_counter.plan", "flip q 0 @ 2\n");
    let out = hwdbg(&["faults", &file, "--plan", &plan, "--cycles", "5"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("ran 5 cycles of `clock`"), "{stderr}");

    for args in [
        vec!["sim", &file, "--clock", "clk"],
        vec!["faults", &file, "--plan", &plan, "--clock", "clk"],
    ] {
        let out = hwdbg(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--clock `clk`"), "{args:?}: {stderr}");
    }
}

/// Tools that cannot run on a design are listed with their error code, not
/// dropped: the counter has no `$display` and no FSM.
#[test]
fn profile_lists_skipped_tools_with_their_codes() {
    let file = design_file("cli_skip_counter.v", CLOCK_COUNTER);
    let out = hwdbg(&["profile", &file, "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    for tool in ["signalcat", "fsm"] {
        let entry = format!("{{\"tool\": \"{tool}\", \"code\": \"E0502\"");
        assert!(json.contains(&entry), "{tool}: {json}");
    }
    assert!(!json.contains("\"tool\": \"depmon\""), "{json}");
    assert!(json_u64(&json, "dep_updates") > 0, "{json}");
}

/// A flag the subcommand does not take is an error naming the flag and
/// the subcommand, not silently ignored: `--cycle` is not `--cycles`, and
/// `--json` means nothing to `fsm`.
#[test]
fn unknown_flags_are_rejected_with_the_subcommand() {
    let file = design_file("cli_flag_counter.v", CLOCK_COUNTER);
    for (args, flag, cmd) in [
        (vec!["sim", &file, "--cycle", "5"], "--cycle", "hwdbg sim"),
        (vec!["fsm", &file, "--json"], "--json", "hwdbg fsm"),
        (vec!["campaign", "seed-sweep", "--top", "x"], "--top", "hwdbg campaign"),
        (vec!["testbed", "d2", "--cycles", "5"], "--cycles", "hwdbg testbed"),
    ] {
        let out = hwdbg(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("`{flag}`")), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("`{cmd}`")), "{args:?}: {stderr}");
    }
}

/// Every flag a usage entry names is accepted by its subcommand: `--top`
/// on `deps`, `profile` and `lint`, which the usage text once left out.
#[test]
fn usage_flags_are_accepted() {
    let file = design_file("cli_usage_counter.v", CLOCK_COUNTER);
    let usage = String::from_utf8_lossy(&hwdbg(&["help"]).stdout).into_owned();
    for entry in ["hwdbg deps", "hwdbg profile", "hwdbg lint"] {
        let line = usage.lines().find(|l| l.starts_with(entry)).unwrap_or_default();
        assert!(line.contains("[--top NAME]"), "{entry}: {usage}");
    }
    for args in [
        vec!["deps", &file, "--var", "q", "--top", "counter"],
        vec!["profile", &file, "--top", "counter", "--cycles", "3", "--json"],
        vec!["lint", &file, "--top", "counter", "--json"],
        vec!["sim", &file, "--top", "counter", "--cycles", "3", "--clock", "clock"],
    ] {
        let out = hwdbg(&args);
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    }
}
