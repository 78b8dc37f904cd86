//! Machine-readable simulation performance suite.
//!
//! Runs the simulator hot-path benchmarks — the comb-chain settle ablation
//! (n ∈ {8, 64, 256}), a width sweep of a combinational ALU
//! (`sim_wide_alu/{32,64,128,256}`: add/xor/shift/sub, the ops the
//! value plane keeps allocation-free at any width), and 1000 cycles of
//! the grayscale pipeline — and writes `BENCH_sim.json` in the current
//! directory: a JSON array of `{"bench", "cycles_per_sec", "wall_ms",
//! "allocs_per_cycle"}` records. `cycles_per_sec` is simulated work per
//! wall-clock second (settles/s for the comb chains and ALU sweep, clock
//! cycles/s for grayscale); `wall_ms` is the mean wall time of one
//! benchmark iteration; `allocs_per_cycle` is heap allocations per unit
//! of steady-state work, counted by a delegating global allocator over a
//! 100-iteration window — the zero-allocation invariant makes 0.0 the
//! expected value, so any nonzero figure is a regression signal.
//!
//! Two `+metrics` companion records rerun the largest comb chain and the
//! grayscale pipeline with the observability counters enabled. They carry
//! extra fields: `metrics_overhead_pct` (per-iteration slowdown vs the
//! metrics-off record, from an ABBA-paired median over adaptive windows
//! — the budget is ≤5%), `metrics_overhead_ci_pct` (a sign-test ~95%
//! confidence interval `[lo, hi]` for that median), `overhead_noisy`
//! (true when the interval straddles zero — the effect is below the
//! machine's noise floor), `counters` (the [`hwdbg_obs::SimCounters`]
//! registry after the run), and, for grayscale, `stages` (per-stage wall
//! times of one elaborate → compile → simulate pass).
//!
//! Two `campaign_fault_matrix/*` records run the full 20-bug × 4-fault
//! campaign through the work-stealing pool at one worker and at the
//! host's available parallelism, reporting jobs (not cycles) per second
//! plus `workers`, `host_cpus`, and `steals` — the speedup between the
//! two records is the campaign engine's scaling headline, and is bounded
//! by `host_cpus` (a 1-core container shows ~1×, honestly).
//!
//! Usage: `cargo run --release -p hwdbg-bench --bin perfsuite`
//!
//! `--check FILE` turns the suite into a CI regression gate: instead of
//! writing `BENCH_sim.json`, the fresh numbers are compared against the
//! baseline records in FILE and the process exits nonzero when any
//! shared bench regressed more than 30% in `cycles_per_sec` or newly
//! allocates (`allocs_per_cycle > 0` where the baseline had exactly 0 —
//! benches the baseline already records as allocating, like the
//! campaign construction loop, are held to the throughput gate only).
//! `--bless` (with `--check`) accepts the fresh numbers and rewrites
//! FILE instead of failing.

// Developer-facing report generator: aborting with a message on a broken
// fixture is the desired behavior, not a robustness hole.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hwdbg_bench::harness::{bench, paired_overhead_pct, Measurement};
use hwdbg_dataflow::elaborate;
use hwdbg_ip::StdModels;
use hwdbg_obs::{
    counters_json, json_escape, stages_json, thread_allocs, CountingAlloc, StageTimer,
};
use hwdbg_sim::{Backend, SimConfig, Simulator};
use hwdbg_testbed::{buggy_design, BugId};

// Counts allocations for the `allocs_per_cycle` column. Steady-state
// windows allocate nothing, so the counter's TLS bump never runs inside
// the timed loops and the throughput numbers are unaffected.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `(measurement, simulated units of work per iteration, steady-state
/// allocations per unit of work, extra JSON)`.
///
/// `extra` is a pre-rendered fragment of additional `"key": value` pairs
/// (starting with `, `) appended to the record, or empty.
struct Record {
    m: Measurement,
    work_per_iter: u64,
    allocs_per_cycle: f64,
    extra: String,
}

/// Heap allocations per unit of work over a 100-iteration window of `f`.
/// Call only after the workload is warm — cold-start allocations (pool
/// growth, map nodes) belong to construction, not the steady state.
fn allocs_per_cycle(work_per_iter: u64, mut f: impl FnMut()) -> f64 {
    const REPS: u64 = 100;
    let before = thread_allocs();
    for _ in 0..REPS {
        f();
    }
    (thread_allocs() - before) as f64 / (REPS * work_per_iter) as f64
}

fn comb_chain(n: usize) -> hwdbg_dataflow::Design {
    let mut src = String::from("module m(input clk, input [31:0] d, output [31:0] q);\n");
    for i in 0..n {
        let prev = if i == 0 { "d".into() } else { format!("w{}", i - 1) };
        src.push_str(&format!("wire [31:0] w{i}; assign w{i} = {prev} + 32'd1;\n"));
    }
    src.push_str(&format!("assign q = w{};\nendmodule", n - 1));
    elaborate(
        &hwdbg_rtl::parse(&src).unwrap(),
        "m",
        &hwdbg_dataflow::NoBlackboxes,
    )
    .unwrap()
}

/// A four-stage combinational ALU at width `w`: add, xor, shift, sub.
/// Deliberately no multiply or divide — those are the op families the
/// value plane documents as allocating above 128 bits, and this sweep
/// exists to show the allocation-free width scaling of everything else.
fn wide_alu(w: usize) -> hwdbg_dataflow::Design {
    let hi = w - 1;
    let src = format!(
        "module m(input clk, input [{hi}:0] a, input [{hi}:0] b, output [{hi}:0] q);\n\
         wire [{hi}:0] s; assign s = a + b;\n\
         wire [{hi}:0] x; assign x = s ^ a;\n\
         wire [{hi}:0] sh; assign sh = x >> 5;\n\
         wire [{hi}:0] d; assign d = sh - b;\n\
         assign q = d;\nendmodule"
    );
    elaborate(
        &hwdbg_rtl::parse(&src).unwrap(),
        "m",
        &hwdbg_dataflow::NoBlackboxes,
    )
    .unwrap()
}

/// One settle of the comb chain: the steady-state hot path.
fn bench_comb_chain(name: &str, config: SimConfig) -> (Measurement, Simulator) {
    let design = comb_chain(256);
    let mut sim = Simulator::new(design, &hwdbg_sim::NoModels, config).unwrap();
    let mut toggle = 0u64;
    let m = bench(name, || {
        toggle = toggle.wrapping_add(1);
        sim.poke_u64("d", 7 + (toggle & 1)).unwrap();
        sim.settle().unwrap();
        sim.peek("q").unwrap().to_u64()
    });
    (m, sim)
}

const GRAYSCALE_CYCLES: u64 = 1000;

/// One cold run of the grayscale pipeline: build the simulator, then step
/// 1000 clock cycles of pixel traffic.
fn grayscale_iter(design: &hwdbg_dataflow::Design, config: SimConfig) -> Simulator {
    let mut sim = Simulator::new(design.clone(), &StdModels, config).unwrap();
    sim.poke_u64("pix_in_valid", 1).unwrap();
    for i in 0..GRAYSCALE_CYCLES {
        sim.poke_u64("pix_in", i).unwrap();
        sim.step("clk").unwrap();
    }
    sim
}

/// Steady-state allocations per grayscale cycle: one warm simulator
/// stepped in place — the invariant under test — not the cold
/// build-and-run loop the throughput bench times.
fn grayscale_steady_apc(design: &hwdbg_dataflow::Design, config: SimConfig) -> f64 {
    let mut sim = Simulator::new(design.clone(), &StdModels, config).unwrap();
    sim.poke_u64("pix_in_valid", 1).unwrap();
    let mut i = 0u64;
    for _ in 0..200 {
        i += 1;
        sim.poke_u64("pix_in", i).unwrap();
        sim.step("clk").unwrap();
    }
    allocs_per_cycle(1, || {
        i += 1;
        sim.poke_u64("pix_in", i).unwrap();
        sim.step("clk").unwrap();
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut check_path: Option<String> = None;
    let mut bless = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => {
                check_path = Some(it.next().expect("--check needs a FILE").clone());
            }
            "--bless" => bless = true,
            other => panic!("unknown flag `{other}` (perfsuite [--check FILE [--bless]])"),
        }
    }
    assert!(
        !bless || check_path.is_some(),
        "--bless only makes sense with --check FILE"
    );

    let mut records = Vec::new();

    for n in [8usize, 64, 256] {
        let design = comb_chain(n);
        // Build once, settle per iteration: the steady-state hot path.
        let mut sim =
            Simulator::new(design, &hwdbg_sim::NoModels, SimConfig::default()).unwrap();
        let mut toggle = 0u64;
        let m = bench(&format!("sim_comb_chain/{n}"), || {
            toggle = toggle.wrapping_add(1);
            sim.poke_u64("d", 7 + (toggle & 1)).unwrap();
            sim.settle().unwrap();
            sim.peek("q").unwrap().to_u64()
        });
        let apc = allocs_per_cycle(1, || {
            toggle = toggle.wrapping_add(1);
            sim.poke_u64("d", 7 + (toggle & 1)).unwrap();
            sim.settle().unwrap();
            std::hint::black_box(sim.peek("q").unwrap().to_u64());
        });
        records.push(Record {
            m,
            work_per_iter: 1,
            allocs_per_cycle: apc,
            extra: String::new(),
        });
    }

    for w in [32usize, 64, 128, 256] {
        let design = wide_alu(w);
        let mut sim =
            Simulator::new(design, &hwdbg_sim::NoModels, SimConfig::default()).unwrap();
        let mut toggle = 0u64;
        let m = bench(&format!("sim_wide_alu/{w}"), || {
            toggle = toggle.wrapping_add(1);
            sim.poke_u64("a", 0x00C0_FFEE ^ (toggle & 1)).unwrap();
            sim.poke_u64("b", 0x0BAD_F00D).unwrap();
            sim.settle().unwrap();
            sim.peek("q").unwrap().to_u64()
        });
        let apc = allocs_per_cycle(1, || {
            toggle = toggle.wrapping_add(1);
            sim.poke_u64("a", 0x00C0_FFEE ^ (toggle & 1)).unwrap();
            sim.settle().unwrap();
            std::hint::black_box(sim.peek("q").unwrap().to_u64());
        });
        records.push(Record {
            m,
            work_per_iter: 1,
            allocs_per_cycle: apc,
            extra: String::new(),
        });
    }

    // Tree-walker companion for the settle headline: the default records
    // above run the levelized backend, and this one reruns the 256-stage
    // chain on the reference tree-walker so the `bytecode_speedup` field
    // records the lowering win in the same report.
    {
        let bytecode_ips = records
            .iter()
            .find(|r| r.m.name == "sim_comb_chain/256")
            .unwrap()
            .m
            .iters_per_sec();
        let (m, mut sim) = bench_comb_chain(
            "sim_comb_chain/256+tree",
            SimConfig::default().with_backend(Backend::Tree),
        );
        let speedup = bytecode_ips / m.iters_per_sec();
        let mut toggle = 0u64;
        let apc = allocs_per_cycle(1, || {
            toggle = toggle.wrapping_add(1);
            sim.poke_u64("d", 7 + (toggle & 1)).unwrap();
            sim.settle().unwrap();
            std::hint::black_box(sim.peek("q").unwrap().to_u64());
        });
        records.push(Record {
            m,
            work_per_iter: 1,
            allocs_per_cycle: apc,
            extra: format!(", \"bytecode_speedup\": {speedup:.2}"),
        });
    }

    let design = buggy_design(BugId::D2).unwrap();
    {
        let m = bench("sim_grayscale_1000_cycles", || {
            grayscale_iter(&design, SimConfig::default()).cycle("clk")
        });
        let apc = grayscale_steady_apc(&design, SimConfig::default());
        records.push(Record {
            m,
            work_per_iter: GRAYSCALE_CYCLES,
            allocs_per_cycle: apc,
            extra: String::new(),
        });
    }
    // Tree-walker companion for the clocked-pipeline headline.
    {
        let bytecode_ips = records
            .iter()
            .find(|r| r.m.name == "sim_grayscale_1000_cycles")
            .unwrap()
            .m
            .iters_per_sec();
        let tree = SimConfig::default().with_backend(Backend::Tree);
        let m = bench("sim_grayscale_1000_cycles+tree", || {
            grayscale_iter(&design, tree.clone()).cycle("clk")
        });
        let speedup = bytecode_ips / m.iters_per_sec();
        let apc = grayscale_steady_apc(&design, tree);
        records.push(Record {
            m,
            work_per_iter: GRAYSCALE_CYCLES,
            allocs_per_cycle: apc,
            extra: format!(", \"bytecode_speedup\": {speedup:.2}"),
        });
    }

    // Metrics-on companions: same workloads with the counter registry
    // live. The overhead comes from an ABBA-paired median (not from
    // comparing the two separately-benched means, which folds machine
    // drift into the delta and can even drive it negative).
    {
        let (m, mut on) =
            bench_comb_chain("sim_comb_chain/256+metrics", SimConfig::default().with_metrics(true));
        let counters = *on.counters().unwrap();
        let mut t1 = 0u64;
        let apc = allocs_per_cycle(1, || {
            t1 = t1.wrapping_add(1);
            on.poke_u64("d", 7 + (t1 & 1)).unwrap();
            on.settle().unwrap();
            std::hint::black_box(on.peek("q").unwrap().to_u64());
        });
        let mut off =
            Simulator::new(comb_chain(256), &hwdbg_sim::NoModels, SimConfig::default()).unwrap();
        let mut t0 = 0u64;
        let oh = paired_overhead_pct(
            &mut || {
                t0 = t0.wrapping_add(1);
                off.poke_u64("d", 7 + (t0 & 1)).unwrap();
                off.settle().unwrap();
                std::hint::black_box(off.peek("q").unwrap().to_u64());
            },
            &mut || {
                t1 = t1.wrapping_add(1);
                on.poke_u64("d", 7 + (t1 & 1)).unwrap();
                on.settle().unwrap();
                std::hint::black_box(on.peek("q").unwrap().to_u64());
            },
        );
        let extra = format!(
            ", \"metrics_overhead_pct\": {:.2}, \"metrics_overhead_ci_pct\": [{:.2}, {:.2}], \"overhead_noisy\": {}, \"counters\": {}",
            oh.pct,
            oh.ci_lo_pct,
            oh.ci_hi_pct,
            oh.noisy,
            counters_json(&counters)
        );
        records.push(Record {
            m,
            work_per_iter: 1,
            allocs_per_cycle: apc,
            extra,
        });
    }
    {
        let m = bench("sim_grayscale_1000_cycles+metrics", || {
            grayscale_iter(&design, SimConfig::default().with_metrics(true)).cycle("clk")
        });
        let apc = grayscale_steady_apc(&design, SimConfig::default().with_metrics(true));
        let oh = paired_overhead_pct(
            &mut || {
                std::hint::black_box(grayscale_iter(&design, SimConfig::default()).cycle("clk"));
            },
            &mut || {
                std::hint::black_box(
                    grayscale_iter(&design, SimConfig::default().with_metrics(true)).cycle("clk"),
                );
            },
        );
        // One instrumented pass with per-stage wall times, outside the
        // measurement window so the timer itself is not benchmarked.
        let mut timer = StageTimer::new();
        let d = timer.time("elaborate", || buggy_design(BugId::D2).unwrap());
        let mut sim = timer.time("compile", || {
            Simulator::new(d, &StdModels, SimConfig::default().with_metrics(true)).unwrap()
        });
        timer.time("simulate", || {
            sim.poke_u64("pix_in_valid", 1).unwrap();
            for i in 0..GRAYSCALE_CYCLES {
                sim.poke_u64("pix_in", i).unwrap();
                sim.step("clk").unwrap();
            }
        });
        let counters = *sim.counters().unwrap();
        let extra = format!(
            ", \"metrics_overhead_pct\": {:.2}, \"metrics_overhead_ci_pct\": [{:.2}, {:.2}], \"overhead_noisy\": {}, \"stages\": {}, \"counters\": {}",
            oh.pct,
            oh.ci_lo_pct,
            oh.ci_hi_pct,
            oh.noisy,
            stages_json(&timer),
            counters_json(&counters)
        );
        records.push(Record {
            m,
            work_per_iter: GRAYSCALE_CYCLES,
            allocs_per_cycle: apc,
            extra,
        });
    }

    // Campaign scaling: the full fault matrix through the work-stealing
    // pool at 1 worker and at host parallelism. Jobs per second, not
    // cycles — each job is a whole 40-cycle faulted simulation. The
    // speedup between the two records is bounded by `host_cpus`; on a
    // single-core container both legitimately read ~1×.
    {
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let campaign = hwdbg_campaign::clients::fault_matrix().expect("matrix builds");
        let n_jobs = campaign.jobs.len() as u64;
        // Per-job allocations, measured on the serial reference loop (the
        // pool's allocations land on worker threads, invisible to the
        // thread-local counter). Jobs build whole simulators, so unlike
        // the steady-state benches this is expected to be large — it is
        // here to catch regressions, not to be zero.
        campaign.run_serial().expect("warm serial run");
        let apc = allocs_per_cycle(n_jobs, || {
            std::hint::black_box(campaign.run_serial().expect("serial run").records.len());
        });
        let mut baseline = None;
        for workers in [1usize, host_cpus.max(2)] {
            let m = bench(&format!("campaign_fault_matrix/jobs={workers}"), || {
                campaign.run(workers).expect("campaign run").records.len()
            });
            let report = campaign.run(workers).expect("campaign run");
            let jps = m.iters_per_sec() * n_jobs as f64;
            let speedup = match baseline {
                None => {
                    baseline = Some(jps);
                    1.0
                }
                Some(b) => jps / b,
            };
            // On a single-core host the two worker counts share one CPU
            // and the ratio measures scheduler contention, not scaling —
            // record that honestly instead of a meaningless "speedup".
            let scaling = if host_cpus == 1 {
                "\"contended\": true".to_owned()
            } else {
                format!("\"speedup_vs_jobs1\": {speedup:.2}")
            };
            let extra = format!(
                ", \"workers\": {}, \"host_cpus\": {}, \"steals\": {}, {scaling}",
                report.workers, host_cpus, report.steals
            );
            records.push(Record {
                m,
                work_per_iter: n_jobs,
                allocs_per_cycle: apc,
                extra,
            });
        }
    }

    let mut json = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let per_sec = r.m.iters_per_sec() * r.work_per_iter as f64;
        json.push_str(&format!(
            "  {{\"bench\": \"{}\", \"cycles_per_sec\": {:.1}, \"wall_ms\": {:.4}, \"allocs_per_cycle\": {:.4}{}}}{}\n",
            json_escape(&r.m.name),
            per_sec,
            r.m.ms_per_iter(),
            r.allocs_per_cycle,
            r.extra,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");

    match check_path {
        None => {
            std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
            println!("\nwrote BENCH_sim.json:\n{json}");
        }
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
            let baseline = parse_records(&text);
            let mut failures = 0usize;
            for r in &records {
                let per_sec = r.m.iters_per_sec() * r.work_per_iter as f64;
                let Some(&(base_cps, base_apc)) = baseline.get(r.m.name.as_str()) else {
                    println!("check {:<40} NEW (no baseline record)", r.m.name);
                    continue;
                };
                let ratio = per_sec / base_cps;
                let regressed = ratio < 0.70;
                let new_allocs = base_apc == 0.0 && r.allocs_per_cycle > 0.0;
                let verdict = if regressed || new_allocs { failures += 1; "FAIL" } else { "ok" };
                println!(
                    "check {:<40} {verdict}: {:.0}/s vs {:.0}/s ({:+.1}%), allocs {:.4} (base {:.4})",
                    r.m.name,
                    per_sec,
                    base_cps,
                    (ratio - 1.0) * 100.0,
                    r.allocs_per_cycle,
                    base_apc,
                );
            }
            if bless {
                std::fs::write(&path, &json).unwrap_or_else(|e| panic!("bless {path}: {e}"));
                println!("blessed: rewrote {path} with the fresh numbers");
            } else if failures > 0 {
                eprintln!(
                    "perfsuite --check: {failures} bench(es) regressed >30% or newly allocate \
                     (rerun with --bless to accept)"
                );
                std::process::exit(1);
            } else {
                println!("perfsuite --check: all benches within 30% of {path}, no new allocs");
            }
        }
    }
}

/// Extracts `(cycles_per_sec, allocs_per_cycle)` per bench name from a
/// `BENCH_sim.json` the suite itself wrote (one record per line — this is
/// a fixture parser, not a general JSON reader).
fn parse_records(text: &str) -> std::collections::BTreeMap<&str, (f64, f64)> {
    fn num_field(line: &str, key: &str) -> Option<f64> {
        let pat = format!("\"{key}\": ");
        let rest = &line[line.find(&pat)? + pat.len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }
    let mut out = std::collections::BTreeMap::new();
    for line in text.lines() {
        let Some(i) = line.find("\"bench\": \"") else { continue };
        let rest = &line[i + 10..];
        let Some(j) = rest.find('"') else { continue };
        let name = &rest[..j];
        let (Some(cps), Some(apc)) = (
            num_field(line, "cycles_per_sec"),
            num_field(line, "allocs_per_cycle"),
        ) else {
            continue;
        };
        out.insert(name, (cps, apc));
    }
    out
}
