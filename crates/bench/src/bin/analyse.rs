//! Perf-study analyser: per-key medians with bootstrap confidence
//! intervals over N trial files, rendered as a report table and usable as
//! the CI regression gate.
//!
//! ```text
//! analyse report <file...> [--markdown <out.md>] [--title <t>]
//! analyse gate --baseline <baseline.json> <trial.json...>
//!         [--gate speedups|medians|both] [--tolerance T]
//!         [--ci-slack S] [--min-trials N]
//! ```
//!
//! Input files are auto-detected by content: Chrome-trace JSON (the
//! `robo-trace` output, keyed by span kind) or `BenchReport` JSON
//! (`BENCH_*.json`, keyed by bench name and speedup ratio). `report`
//! prints the median/CI tables — and writes them as markdown when
//! `--markdown` is given (the CI artifact). Serving latency percentiles
//! (`*_p50_ns`/`*_p99_ns` medians from `load_serve`) render as their own
//! paired p50/p99 table, in µs, lower is better. `gate` compares bench
//! trials against a committed baseline with the band, interval and floor
//! rules of [`robo_bench::analyse`]; a baseline key no trial carries
//! fails. `--gate medians` switches to lower-is-better median gating —
//! only meaningful same-machine, e.g. CI's disabled-vs-absent
//! tracing-overhead check, which runs both variants in one job and gates
//! with a generous `--tolerance 0.5`.
//!
//! Exit codes: 0 ok, 1 regression, 2 usage or I/O error.

use robo_bench::analyse::{bench_table, gate, latency_table, trace_table, GateConfig, GateMode};
use robo_bench::report::BenchReport;
use robo_trace::Trace;
use std::path::Path;

fn fail(msg: &str) -> ! {
    eprintln!("analyse: {msg}");
    std::process::exit(2);
}

const USAGE: &str = "usage: analyse report <file...> [--markdown <out.md>] [--title <t>]\n\
                     \x20      analyse gate --baseline <baseline.json> <trial.json...>\n\
                     \x20              [--gate speedups|medians|both] [--tolerance T]\n\
                     \x20              [--ci-slack S] [--min-trials N]";

/// One parsed input file.
enum Input {
    Bench(BenchReport),
    Trace(Trace),
}

fn load(path: &str) -> Input {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    if text.contains("\"traceEvents\"") {
        Input::Trace(
            Trace::parse_chrome(&text)
                .unwrap_or_else(|e| fail(&format!("cannot parse trace {path}: {e}"))),
        )
    } else {
        Input::Bench(
            BenchReport::from_json(&text)
                .unwrap_or_else(|e| fail(&format!("cannot parse report {path}: {e}"))),
        )
    }
}

fn split(paths: &[String]) -> (Vec<BenchReport>, Vec<Trace>) {
    let mut benches = Vec::new();
    let mut traces = Vec::new();
    for p in paths {
        match load(p) {
            Input::Bench(b) => benches.push(b),
            Input::Trace(t) => traces.push(t),
        }
    }
    (benches, traces)
}

fn cmd_report(args: &[String]) {
    let mut paths = Vec::new();
    let mut markdown: Option<String> = None;
    let mut title = "perf study".to_owned();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--markdown" => {
                i += 1;
                markdown = Some(
                    args.get(i)
                        .unwrap_or_else(|| fail("--markdown needs a path"))
                        .clone(),
                );
            }
            "--title" => {
                i += 1;
                title = args
                    .get(i)
                    .unwrap_or_else(|| fail("--title needs a value"))
                    .clone();
            }
            p => paths.push(p.to_owned()),
        }
        i += 1;
    }
    if paths.is_empty() {
        fail(USAGE);
    }
    let (benches, traces) = split(&paths);
    let mut tables = Vec::new();
    if !benches.is_empty() {
        tables.push(bench_table(&benches, &format!("{title}: bench medians")));
        if let Some(lat) = latency_table(&benches, &format!("{title}: serving latency")) {
            tables.push(lat);
        }
    }
    if !traces.is_empty() {
        tables.push(trace_table(&traces, &format!("{title}: span breakdown")));
    }
    for t in &tables {
        print!("{}", t.render());
    }
    if let Some(out) = markdown {
        let md: String = tables.iter().map(|t| t.render_markdown() + "\n").collect();
        std::fs::write(Path::new(&out), md)
            .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
        println!("wrote {out}");
    }
}

fn cmd_gate(args: &[String]) {
    let mut baseline: Option<String> = None;
    let mut trials = Vec::new();
    let mut config = GateConfig::default();
    let mut mode = GateMode::Speedups;
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: &mut usize, name: &str| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
                .clone()
        };
        match args[i].as_str() {
            "--baseline" => baseline = Some(flag_value(&mut i, "--baseline")),
            "--gate" => {
                mode = flag_value(&mut i, "--gate")
                    .parse()
                    .unwrap_or_else(|e: String| fail(&e));
            }
            "--tolerance" => {
                let v = flag_value(&mut i, "--tolerance");
                config.tolerance = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad tolerance `{v}`")));
            }
            "--ci-slack" => {
                let v = flag_value(&mut i, "--ci-slack");
                config.ci_slack = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad ci-slack `{v}`")));
            }
            "--min-trials" => {
                let v = flag_value(&mut i, "--min-trials");
                config.min_trials = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad min-trials `{v}`")));
            }
            p => trials.push(p.to_owned()),
        }
        i += 1;
    }
    let Some(baseline_path) = baseline else {
        fail(USAGE);
    };
    if trials.is_empty() {
        fail("gate needs at least one trial file");
    }

    let Input::Bench(base) = load(&baseline_path) else {
        fail(&format!(
            "baseline {baseline_path} is a trace, not a bench report"
        ));
    };
    let (bench_trials, traces) = split(&trials);
    if !traces.is_empty() {
        fail("gate trials must be bench reports, not traces");
    }

    print!(
        "{}",
        bench_table(
            &bench_trials,
            &format!("gate: {} trial(s) vs {baseline_path}", bench_trials.len()),
        )
        .render()
    );

    let failures = gate(&base, &bench_trials, mode, config);
    if failures.is_empty() {
        println!(
            "analyse: ok — {mode:?} gate passed ({} trial(s); {:.0}% band, \
             CI rule from {} trials)",
            bench_trials.len(),
            config.tolerance * 100.0,
            config.min_trials,
        );
    } else {
        for f in &failures {
            eprintln!("analyse: FAIL: {f}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "report" => cmd_report(rest),
        Some((cmd, rest)) if cmd == "gate" => cmd_gate(rest),
        _ => fail(USAGE),
    }
}
