//! Command-line front end of the Fig. 4 prototype tool.
//!
//! ```sh
//! # compile a spec and emit the generated controller module + reports
//! cargo run -p fgqos-tool --bin fgqos-tool -- compile spec.fgq -o out_dir
//! # write the paper encoder's spec to stdout (a starting template)
//! cargo run -p fgqos-tool --bin fgqos-tool -- template
//! # render the body precedence graph in Graphviz DOT
//! cargo run -p fgqos-tool --bin fgqos-tool -- dot spec.fgq
//! # pretty-print a telemetry snapshot, or diff two of them
//! cargo run -p fgqos-tool --bin fgqos-tool -- telemetry snap.json
//! cargo run -p fgqos-tool --bin fgqos-tool -- telemetry snap.json --diff old.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use fgqos_telemetry::TelemetrySnapshot;
use fgqos_tool::compile::compile;
use fgqos_tool::report::OverheadReport;
use fgqos_tool::{codegen, ToolSpec};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("template") => {
            let spec = ToolSpec::paper_encoder(
                fgqos_time::fig5::MACROBLOCKS_PER_FRAME,
                fgqos_time::fig5::PERIOD_CYCLES,
            );
            print!("{}", spec.emit());
            ExitCode::SUCCESS
        }
        Some("compile") => run_compile(&args[1..]),
        Some("dot") => run_dot(&args[1..]),
        Some("telemetry") => run_telemetry(&args[1..]),
        _ => {
            eprintln!(
                "usage: fgqos-tool <template | compile SPEC [-o DIR] | dot SPEC | telemetry SNAP [--diff OLD]>\n\
                 \n\
                 template   print the paper encoder's spec\n\
                 compile    validate a spec, generate the controller tables\n\
                 dot        render the body precedence graph as Graphviz DOT\n\
                 telemetry  pretty-print a telemetry snapshot JSON file,\n\
                 \u{20}          or show its delta against an older snapshot"
            );
            ExitCode::from(2)
        }
    }
}

fn load_spec(path: &str) -> Result<ToolSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    ToolSpec::parse(&text).map_err(|e| e.to_string())
}

fn run_compile(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("compile: missing spec path");
        return ExitCode::from(2);
    };
    let out_dir = args
        .iter()
        .position(|a| a == "-o")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    let spec = match load_spec(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let app = match compile(&spec) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("compile failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "compiled `{}`: {} body actions x {} iterations, schedule of {} actions",
        app.name(),
        app.body().len(),
        app.iterations(),
        app.schedule().len()
    );
    println!("table memory: {} bytes", app.tables().memory_bytes());
    // Overhead ratios use the whole-cycle cost at the paper's reference
    // quality as the runtime denominator.
    let cycle_cost = fgqos_time::fig5::macroblock_avg_cycles(3) * app.iterations() as u64;
    let report = OverheadReport::compute(&app, 300 * 1024, 4 * 1024 * 1024, cycle_cost);
    println!("{report}");
    if app.iterations() > 1 {
        println!(
            "note: these are the *unrolled* simulation tables; the deployable\n\
             embedded artifact is the per-iteration body table (compile the same\n\
             spec with `iterations 1` and the per-iteration budget); the\n\
             `overheads` bin of fgqos-bench reports that artifact's ratios."
        );
    }
    if let Some(dir) = out_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let module = codegen::generate_rust(&app);
        let module_path = dir.join("controller_tables.rs");
        if let Err(e) = std::fs::write(&module_path, module) {
            eprintln!("cannot write {}: {e}", module_path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", module_path.display());
        let dot = fgqos_graph::dot::to_dot(app.body(), app.name());
        let dot_path = dir.join("body.dot");
        if let Err(e) = std::fs::write(&dot_path, dot) {
            eprintln!("cannot write {}: {e}", dot_path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", dot_path.display());
    }
    ExitCode::SUCCESS
}

fn load_snapshot(path: &str) -> Result<TelemetrySnapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    TelemetrySnapshot::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn run_telemetry(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("telemetry: missing snapshot path");
        return ExitCode::from(2);
    };
    let baseline = args
        .iter()
        .position(|a| a == "--diff")
        .map(|i| match args.get(i + 1) {
            Some(p) => load_snapshot(p),
            None => Err("telemetry: --diff needs a baseline path".to_string()),
        });
    let rendered = load_snapshot(path).and_then(|snap| match baseline {
        None => Ok(snap.render()),
        Some(Ok(base)) => Ok(snap.diff(&base)),
        Some(Err(e)) => Err(e),
    });
    match rendered {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run_dot(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("dot: missing spec path");
        return ExitCode::from(2);
    };
    match load_spec(path).and_then(|spec| {
        compile(&spec)
            .map(|app| fgqos_graph::dot::to_dot(app.body(), app.name()))
            .map_err(|e| e.to_string())
    }) {
        Ok(dot) => {
            print!("{dot}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
